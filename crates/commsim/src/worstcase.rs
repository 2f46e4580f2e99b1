//! The overestimation ("worst-case") simulation algorithm (paper §4.2).
//!
//! To bound the communication time from above, each processor first waits
//! for **all** the messages it has to receive and only afterwards starts
//! transmitting its own. The algorithm proceeds in rounds: in the first part
//! of a round, every processor whose receive counter has reached zero sends
//! all of its messages; in the second part, every destination performs the
//! corresponding receive operations (in arrival order, under the gap rule).
//!
//! A processor inside a cycle of the pattern would wait forever, so on a
//! round in which no processor may send and messages remain, the algorithm
//! "performs randomly some message transmissions in order to break the
//! deadlock": one pending message from a randomly chosen blocked processor
//! is forced out. The number of forced transmissions is reported in
//! [`SimResult::forced_sends`].
//!
//! The paper notes this schedule "cannot take place in real execution"
//! (processors usually do not know how many messages to expect); it exists
//! purely to overestimate.
//!
//! # Implementation
//!
//! Like [`crate::standard`], the loop runs on flat [`SimScratch`] state
//! (arena-cursor send queues, reused inbox buffers, a receive-counter
//! array) and is pinned bit-identical to the straightforward encoding in
//! [`crate::reference`] by `tests/equiv.rs`. Because part 2 of every round
//! fully drains the inboxes, the round structure — which processors send in
//! which round, and where deadlocks are broken — depends only on the
//! pattern, never on the LogGP parameters; [`crate::replay`] exploits that
//! to re-time a recorded run under new parameters without re-running the
//! selection logic.

use crate::faults::{transmit, StepFaults};
use crate::observe::StepTracer;
use crate::pattern::{CommPattern, Message};
use crate::scratch::{InFlight, SimScratch};
use crate::timeline::{CommEvent, SimResult, Timeline};
use crate::{CommAlgo, SimConfig, StepRequest};
use loggp::{GapRule, LogGpParams, OpKind, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Simulate one communication step with the overestimation algorithm,
/// every processor ready at time zero. Ready times, arrival models, tracing
/// and faults go through [`CommAlgo::simulate`].
pub fn simulate(pattern: &CommPattern, cfg: &SimConfig) -> SimResult {
    let ready = vec![Time::ZERO; pattern.procs()];
    CommAlgo::WorstCase.simulate(
        StepRequest::new(pattern, cfg, &ready),
        &mut SimScratch::new(),
    )
}

/// Pop processor `p`'s next message, commit its send (fault-charged), and
/// deliver it to the destination inbox with a clamped arrival.
#[allow(clippy::too_many_arguments)]
fn wc_send(
    scratch: &mut SimScratch,
    timeline: &mut Timeline,
    params: &LogGpParams,
    rule: GapRule,
    p: usize,
    forced: bool,
    arrival_of: &mut dyn FnMut(&Message, Time) -> Time,
    tracer: Option<&StepTracer<'_>>,
    faults: Option<&dyn StepFaults>,
) {
    let (slot, msg) = scratch.pop_send(p);
    let final_start = transmit(
        &mut scratch.clocks[p],
        params,
        rule,
        p,
        &msg,
        forced,
        faults,
        tracer,
        timeline,
    );
    // Documented clamp (see `StepRequest::with_arrival`): an arrival model
    // returning < send_start + o is lifted to the earliest sound arrival,
    // in release builds too.
    let arrival = arrival_of(&msg, final_start).max(final_start + params.overhead);
    scratch.inboxes[msg.dst].push(InFlight {
        arrival,
        id: msg.id as u32,
        slot,
    });
}

/// Part 2 of a round: every destination receives the messages delivered so
/// far, in `(arrival, msg.id)` order. Shared with [`crate::replay`].
pub(crate) fn wc_drain(
    scratch: &mut SimScratch,
    timeline: &mut Timeline,
    params: &LogGpParams,
    rule: GapRule,
    tracer: Option<&StepTracer<'_>>,
    procs: usize,
) {
    for p in 0..procs {
        if scratch.inboxes[p].is_empty() {
            continue;
        }
        let mut inbox = std::mem::take(&mut scratch.inboxes[p]);
        // (arrival, id) is unique, so the unstable sort is deterministic.
        inbox.sort_unstable();
        for &inflight in &inbox {
            let msg = scratch.arena[inflight.slot as usize];
            let clock = &mut scratch.clocks[p];
            let start = clock.earliest_start_kind(params, rule, OpKind::Recv, inflight.arrival);
            let end = clock.commit_kind(params, rule, OpKind::Recv, start);
            let event = CommEvent {
                proc: p,
                kind: OpKind::Recv,
                peer: msg.src,
                bytes: msg.bytes,
                msg_id: msg.id,
                start,
                end,
            };
            if let Some(t) = tracer {
                t.recv(&event, inflight.arrival, false);
            }
            timeline.push(event);
            scratch.to_recv[p] -= 1;
        }
        inbox.clear();
        scratch.inboxes[p] = inbox; // hand the buffer back for reuse
    }
}

/// The full round loop, optionally recording the commit order for
/// [`crate::replay`]: each send is appended as `proc << 1 | forced`, and a
/// `u32::MAX` sentinel marks the end of each round's part 1 (where the
/// drain runs). Because every round fully drains, the recorded structure
/// is a pure function of the pattern and the forced-send RNG stream — it
/// replays exactly under any LogGP parameters as long as the seed matches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn wc_core(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    arrival_of: &mut dyn FnMut(&Message, Time) -> Time,
    tracer: Option<&StepTracer<'_>>,
    faults: Option<&dyn StepFaults>,
    scratch: &mut SimScratch,
    mut rec: Option<&mut Vec<u32>>,
) -> SimResult {
    let params = &cfg.params;
    let rule = cfg.gap_rule;
    // Only deadlock rounds consult the RNG; acyclic patterns build none.
    let mut rng: Option<SmallRng> = None;

    scratch.begin_worstcase(pattern, ready);
    let procs = pattern.procs();
    let mut timeline = Timeline::new(procs);
    timeline.reserve(2 * scratch.arena.len());
    let mut forced_sends = 0usize;
    let mut remaining_sends = scratch.arena.len();

    // Part 2 fully drains every inbox, so at the top of a round no receives
    // are ever pending (the reference loop's "receives pending but nobody
    // eligible" branch is unreachable) and the loop runs while sends remain.
    while remaining_sends > 0 {
        debug_assert!(scratch.inboxes[..procs].iter().all(|i| i.is_empty()));

        // Part 1: every processor that has received everything it expects
        // sends all of its messages.
        scratch.tied.clear();
        for p in 0..procs {
            if scratch.to_recv[p] == 0 && scratch.has_sends(p) {
                scratch.tied.push(p as u32);
            }
        }

        if !scratch.tied.is_empty() {
            for i in 0..scratch.tied.len() {
                let p = scratch.tied[i] as usize;
                while scratch.has_sends(p) {
                    wc_send(
                        scratch,
                        &mut timeline,
                        params,
                        rule,
                        p,
                        false,
                        arrival_of,
                        tracer,
                        faults,
                    );
                    remaining_sends -= 1;
                    if let Some(r) = rec.as_deref_mut() {
                        r.push((p as u32) << 1);
                    }
                }
            }
        } else {
            // Deadlock: messages remain but every would-be sender is still
            // waiting on a cycle. Force one transmission from a randomly
            // chosen blocked processor.
            for p in 0..procs {
                if scratch.has_sends(p) {
                    scratch.tied.push(p as u32);
                }
            }
            debug_assert!(!scratch.tied.is_empty());
            // A singleton draw returns 0 without consuming RNG state, so
            // skipping it keeps the stream identical to the reference loop.
            let victim = if scratch.tied.len() == 1 {
                scratch.tied[0] as usize
            } else {
                let rng = rng.get_or_insert_with(|| SmallRng::seed_from_u64(cfg.seed));
                scratch.tied[rng.gen_range(0..scratch.tied.len())] as usize
            };
            wc_send(
                scratch,
                &mut timeline,
                params,
                rule,
                victim,
                true,
                arrival_of,
                tracer,
                faults,
            );
            remaining_sends -= 1;
            forced_sends += 1;
            if let Some(r) = rec.as_deref_mut() {
                r.push((victim as u32) << 1 | 1);
            }
        }
        if let Some(r) = rec.as_deref_mut() {
            r.push(u32::MAX); // round boundary: the drain runs here
        }

        // Part 2: every destination performs the receive operations for the
        // messages delivered so far, in arrival order.
        wc_drain(scratch, &mut timeline, params, rule, tracer, procs);
    }

    let mut result = SimResult::new(timeline);
    result.forced_sends = forced_sends;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::ValidateOptions;
    use crate::{patterns, standard};
    use loggp::presets;

    fn meiko_cfg(procs: usize) -> SimConfig {
        SimConfig::new(presets::meiko_cs2(procs))
    }

    fn check(pattern: &CommPattern, cfg: &SimConfig, r: &SimResult) {
        // The worst-case algorithm interleaves program order across rounds,
        // so only the model constraints are checked, not send order.
        validate_with(pattern, cfg, r);
    }

    fn validate_with(pattern: &CommPattern, cfg: &SimConfig, r: &SimResult) {
        // Only the hard model constraints apply to the worst-case schedule:
        // rounds reorder sends across program order, and a message sent in a
        // later round can arrive before one received in an earlier round.
        crate::validate::validate_opts(
            pattern,
            cfg,
            &r.timeline,
            &ValidateOptions {
                check_send_program_order: false,
                check_recv_arrival_order: false,
            },
        )
        .unwrap();
    }

    #[test]
    fn single_message_same_as_standard() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 1100);
        let cfg = meiko_cfg(2);
        let wc = simulate(&pattern, &cfg);
        let st = standard::simulate(&pattern, &cfg);
        assert_eq!(wc.finish, st.finish);
        assert_eq!(wc.forced_sends, 0);
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn chain_waits_for_upstream() {
        // 0 -> 1 -> 2: processor 1 must receive before sending, so the step
        // takes two full message times (minus no overlap at P1).
        let mut pattern = CommPattern::new(3);
        pattern.add(0, 1, 1);
        pattern.add(1, 2, 1);
        let cfg = meiko_cfg(3);
        let wc = simulate(&pattern, &cfg);
        let msg = cfg.params.message_cost(1);
        // Receive at P1 ends at msg; P1's send starts >= recv.start + g,
        // and its message needs o + L + o more.
        let recv1_start = cfg.params.arrival_time(Time::ZERO, 1);
        let send1_start = recv1_start + cfg.params.gap;
        assert_eq!(wc.finish, send1_start + msg);
        assert_eq!(wc.forced_sends, 0);
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn worst_case_never_faster_than_standard_on_dags() {
        let cfg = meiko_cfg(10);
        let pattern = patterns::figure3();
        let wc = simulate(&pattern, &cfg);
        let st = standard::simulate(&pattern, &cfg);
        assert!(
            wc.finish >= st.finish,
            "wc {} < std {}",
            wc.finish,
            st.finish
        );
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn ring_deadlock_is_broken() {
        let n = 6;
        let pattern = patterns::ring(n, 256);
        assert!(pattern.has_cycle());
        let cfg = meiko_cfg(n);
        let wc = simulate(&pattern, &cfg);
        assert!(wc.forced_sends >= 1, "cycle must force at least one send");
        assert_eq!(wc.timeline.len(), 2 * pattern.len());
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn forced_sends_deterministic_per_seed() {
        let pattern = patterns::ring(5, 64);
        let cfg = meiko_cfg(5).with_seed(7);
        let a = simulate(&pattern, &cfg);
        let b = simulate(&pattern, &cfg);
        assert_eq!(a.timeline.events(), b.timeline.events());
        assert_eq!(a.forced_sends, b.forced_sends);
    }

    #[test]
    fn all_messages_accounted_for() {
        let pattern = patterns::all_to_all(4, 128);
        let cfg = meiko_cfg(4);
        let wc = simulate(&pattern, &cfg);
        // all-to-all is cyclic: every processor waits on every other.
        assert!(wc.forced_sends > 0);
        assert_eq!(wc.timeline.len(), 2 * pattern.network_messages().count());
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn ready_times_respected() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 1);
        let cfg = meiko_cfg(2);
        let delay = Time::from_us(50.0);
        let wc = CommAlgo::WorstCase.simulate(
            StepRequest::new(&pattern, &cfg, &[delay, Time::ZERO]),
            &mut SimScratch::new(),
        );
        assert_eq!(wc.timeline.events_for(0)[0].start, delay);
        check(&pattern, &cfg, &wc);
    }

    #[test]
    fn empty_pattern() {
        let pattern = CommPattern::new(3);
        let cfg = meiko_cfg(3);
        let wc = simulate(&pattern, &cfg);
        assert_eq!(wc.finish, Time::ZERO);
        assert_eq!(wc.forced_sends, 0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let cfg = meiko_cfg(8).with_seed(11);
        let mut scratch = SimScratch::new();
        for pattern in [
            patterns::ring(8, 256),
            patterns::all_to_all(8, 64),
            patterns::ring(8, 1024),
        ] {
            let ready = [Time::ZERO; 8];
            let reused = CommAlgo::WorstCase
                .simulate(StepRequest::new(&pattern, &cfg, &ready), &mut scratch);
            let fresh = simulate(&pattern, &cfg);
            assert_eq!(reused.timeline.events(), fresh.timeline.events());
            assert_eq!(reused.forced_sends, fresh.forced_sends);
        }
    }

    #[test]
    fn misbehaving_arrival_hook_is_clamped_not_unsound() {
        let mut pattern = CommPattern::new(2);
        pattern.add(0, 1, 4096);
        let cfg = meiko_cfg(2);
        let mut instant = |_m: &Message, _start: Time| Time::ZERO;
        let r = CommAlgo::WorstCase.simulate(
            StepRequest::new(&pattern, &cfg, &[Time::ZERO; 2]).with_arrival(&mut instant),
            &mut SimScratch::new(),
        );
        let send = r.timeline.events_for(0)[0];
        let recv = r.timeline.events_for(1)[0];
        assert_eq!(recv.start, send.start + cfg.params.overhead);
    }
}
