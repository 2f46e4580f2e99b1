//! `predsim-faults` — deterministic fault injection for the simulators.
//!
//! The paper's LogGP machine is perfectly reliable; real machines are not.
//! This crate answers "what does this program cost on a *degraded*
//! machine" by layering three fault classes over the unchanged simulation
//! algorithms:
//!
//! * **message drop + retransmission** — each transmission attempt of a
//!   message may be lost; the sender retransmits after a timeout with
//!   exponential backoff, and every attempt is charged in LogGP terms
//!   (`o` of CPU and `g` of port back-pressure per attempt; the delivered
//!   attempt pays the full `o + (k−1)G + L` wire time);
//! * **transient slowdown** — a processor's computation charge in a step
//!   is multiplied by a factor, modelling interference or DVFS throttling;
//! * **fail-stop + restart** — a processor is silent for an outage window
//!   starting at a step; its participation (sends *and* receives) is
//!   pushed out past the restart, so queued receives drain on restart.
//!
//! Every decision is a pure function of a [`FaultPlan`]'s seed and the
//! fault site (step index, message id, processor) via a splitmix64-style
//! hash — **never** of virtual time. Both the standard and the worst-case
//! algorithm therefore see identical fault decisions, which is what keeps
//! the paper's overestimation bound (`worst-case ≥ standard`) intact under
//! fault injection; `tests/props.rs` enforces it by proptest.
//!
//! ```
//! use predsim_faults::{FaultPlan, FaultSpec};
//! use predsim_core::{simulate_request, Program, SimOptions, SimRequest, Step};
//! use commsim::{CommPattern, SimConfig};
//! use loggp::{presets, Time};
//!
//! let mut prog = Program::new(2);
//! let mut c = CommPattern::new(2);
//! c.add(0, 1, 1024);
//! prog.push(Step::new("ship").with_comm(c));
//! let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
//!
//! let clean = predsim_core::simulate_program(&prog, &opts);
//! let spec = FaultSpec::parse("drop:0.5").unwrap();
//! let plan = FaultPlan::new(spec, 7);
//! let faulty = simulate_request(&prog, &opts, SimRequest::default().with_faults(&plan));
//! assert!(faulty.prediction.total >= clean.total);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod plan;
mod sim;
mod spec;

pub use chaos::{ChaosPlan, ChaosSpec};
pub use plan::FaultPlan;
pub use predsim_core::StepFaultView;
pub use spec::{FailEvent, FaultSpec};
