//! Trace emission for the step simulators.
//!
//! A [`StepTracer`] couples a [`TraceSink`] with the index of the program
//! step being simulated; attached to a step with
//! [`crate::StepRequest::with_tracer`], both algorithms call back into it
//! at every committed operation. Tracing is strictly observational: the simulators
//! compute identical timelines with and without a tracer attached.

use crate::timeline::CommEvent;
use loggp::Time;
use predsim_obs::{TraceEvent, TraceSink};

/// Emits [`TraceEvent`]s for the operations of one communication step.
pub struct StepTracer<'a> {
    sink: &'a dyn TraceSink,
    step: u64,
}

impl<'a> StepTracer<'a> {
    /// A tracer writing to `sink`, stamping every event with `step`.
    pub fn new(sink: &'a dyn TraceSink, step: u64) -> Self {
        StepTracer { sink, step }
    }

    /// The step index stamped on emitted events.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Record a committed send operation (`forced` marks the worst-case
    /// algorithm's deadlock-breaking transmissions).
    pub fn send(&self, ev: &CommEvent, forced: bool) {
        self.sink.emit(&TraceEvent::Send {
            step: self.step,
            proc: ev.proc,
            peer: ev.peer,
            msg_id: ev.msg_id,
            bytes: ev.bytes,
            start_ps: ev.start.as_ps(),
            end_ps: ev.end.as_ps(),
            forced,
        });
    }

    /// Record a committed receive operation; when the receive started
    /// strictly after the message's arrival a [`TraceEvent::GapStall`] is
    /// emitted alongside it.
    pub fn recv(&self, ev: &CommEvent, arrival: Time, drain: bool) {
        self.sink.emit(&TraceEvent::Recv {
            step: self.step,
            proc: ev.proc,
            peer: ev.peer,
            msg_id: ev.msg_id,
            bytes: ev.bytes,
            arrival_ps: arrival.as_ps(),
            start_ps: ev.start.as_ps(),
            end_ps: ev.end.as_ps(),
            drain,
        });
        if ev.start > arrival {
            self.sink.emit(&TraceEvent::GapStall {
                step: self.step,
                proc: ev.proc,
                msg_id: ev.msg_id,
                arrival_ps: arrival.as_ps(),
                start_ps: ev.start.as_ps(),
                waited_ps: (ev.start - arrival).as_ps(),
            });
        }
    }

    /// Record that the network dropped one transmission attempt of a
    /// message (`ev` is the dropped attempt's send event).
    pub fn dropped(&self, ev: &CommEvent, attempt: u64) {
        self.sink.emit(&TraceEvent::Drop {
            step: self.step,
            proc: ev.proc,
            peer: ev.peer,
            msg_id: ev.msg_id,
            attempt,
            at_ps: ev.start.as_ps(),
        });
    }

    /// Record a retransmission attempt committed after waiting out `rto`.
    pub fn retransmit(&self, ev: &CommEvent, attempt: u64, rto: Time) {
        self.sink.emit(&TraceEvent::Retransmit {
            step: self.step,
            proc: ev.proc,
            peer: ev.peer,
            msg_id: ev.msg_id,
            attempt,
            rto_ps: rto.as_ps(),
            start_ps: ev.start.as_ps(),
            end_ps: ev.end.as_ps(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loggp::OpKind;
    use predsim_obs::MemorySink;

    fn ev(proc: usize, kind: OpKind, start: u64, end: u64) -> CommEvent {
        CommEvent {
            proc,
            kind,
            peer: 1,
            bytes: 8,
            msg_id: 0,
            start: Time::from_ps(start),
            end: Time::from_ps(end),
        }
    }

    #[test]
    fn recv_after_arrival_emits_gap_stall() {
        let sink = MemorySink::new();
        let tracer = StepTracer::new(&sink, 4);
        tracer.recv(&ev(0, OpKind::Recv, 100, 160), Time::from_ps(40), false);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "recv");
        assert!(matches!(
            events[1],
            TraceEvent::GapStall {
                step: 4,
                waited_ps: 60,
                ..
            }
        ));
    }

    #[test]
    fn prompt_recv_emits_no_stall() {
        let sink = MemorySink::new();
        let tracer = StepTracer::new(&sink, 0);
        tracer.recv(&ev(0, OpKind::Recv, 40, 100), Time::from_ps(40), true);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], TraceEvent::Recv { drain: true, .. }));
    }

    #[test]
    fn send_carries_forced_flag() {
        let sink = MemorySink::new();
        let tracer = StepTracer::new(&sink, 2);
        assert_eq!(tracer.step(), 2);
        tracer.send(&ev(3, OpKind::Send, 0, 60), true);
        assert!(matches!(
            sink.events()[0],
            TraceEvent::Send {
                proc: 3,
                forced: true,
                ..
            }
        ));
    }
}
