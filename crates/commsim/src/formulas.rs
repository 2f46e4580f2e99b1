//! Closed-form LogGP running times for *regular* communication patterns —
//! the approach of the prior work the paper positions itself against
//! ("the program running time was expressed using explicit formulas"), and
//! a set of independent differential oracles for the simulator: for every
//! pattern with a known formula, the standard algorithm must reproduce the
//! formula exactly.
//!
//! All formulas assume the extended gap rule with `g ≥ o` (every preset
//! satisfies it; the functions assert it), idle receivers, and messages of
//! equal length `k` with wire time `w = (k−1)·G`.

use crate::pattern::CommPattern;
use crate::standard;
use crate::SimConfig;
use loggp::{LogGpParams, Time};

fn wire(params: &LogGpParams, bytes: usize) -> Time {
    params.wire_time(bytes)
}

fn assert_regular(params: &LogGpParams) {
    assert!(
        params.gap >= params.overhead,
        "closed forms here assume g >= o (as in LogP/LogGP and all presets)"
    );
}

/// Point-to-point time of one `k`-byte message: `o + (k−1)G + L + o`.
pub fn point_to_point(params: &LogGpParams, bytes: usize) -> Time {
    params.message_cost(bytes)
}

/// Linear (flat) broadcast of `k` bytes from a root to `p−1` receivers:
/// the root issues sends every `g`; the last message leaves at
/// `(p−2)·g`, arrives `o + w + L` later, and costs the receiver `o`:
///
/// `T = (p−2)·g + o + (k−1)G + L + o`   (for `p ≥ 2`).
pub fn linear_broadcast(params: &LogGpParams, p: usize, bytes: usize) -> Time {
    assert_regular(params);
    assert!(p >= 2, "broadcast needs at least two processors");
    params.gap * (p as u64 - 2) + params.message_cost(bytes)
}

/// Gather of `k` bytes from `p−1` senders to a root: all messages are sent
/// at time 0 and arrive simultaneously at `o + w + L`; the root's receives
/// then serialize at one per `g`:
///
/// `T = o + (k−1)G + L + (p−2)·g + o`   (for `p ≥ 2`).
pub fn gather(params: &LogGpParams, p: usize, bytes: usize) -> Time {
    assert_regular(params);
    assert!(p >= 2, "gather needs at least two processors");
    params.overhead
        + wire(params, bytes)
        + params.latency
        + params.gap * (p as u64 - 2)
        + params.overhead
}

/// Circular shift (every processor sends one `k`-byte message and receives
/// one): all sends start at 0; each receive starts at
/// `max(o + w + L, g)` (arrival vs. the gap after the send):
///
/// `T = max(o + (k−1)G + L, g) + o`.
pub fn shift(params: &LogGpParams, bytes: usize) -> Time {
    assert_regular(params);
    let arrival = params.overhead + wire(params, bytes) + params.latency;
    arrival.max(params.gap) + params.overhead
}

/// Binomial-tree broadcast of `k` bytes from processor 0 over `p`
/// processors, executed as **one communication step per round** (a
/// broadcast has a data dependence between rounds, so the oblivious
/// program for it is a multi-step program; within a single step the
/// simulators rightly let every send go eagerly).
///
/// Computed by the natural recursion under the round-chained semantics of
/// the whole-program simulator (fresh operation clocks per step, a
/// processor entering a step when its previous one ended): in round `r`
/// every holder `i < 2^r` sends to `i + 2^r` at its ready time; the
/// message arrives `o + (k−1)G + L` later; the destination receives at
/// `max(arrival, its ready)` and is ready `o` after that. Returns the
/// instant the last processor becomes ready.
pub fn binomial_broadcast(params: &LogGpParams, p: usize, bytes: usize) -> Time {
    assert_regular(params);
    assert!(p >= 1);
    let mut ready = vec![Time::ZERO; p];
    let mut round = 1usize;
    while round < p {
        for i in 0..round.min(p) {
            let dst = i + round;
            if dst >= p {
                continue;
            }
            let send_start = ready[i];
            let arrival = params.arrival_time(send_start, bytes);
            let recv_start = arrival.max(ready[dst]);
            ready[i] = send_start + params.overhead;
            ready[dst] = recv_start + params.overhead;
        }
        round *= 2;
    }
    ready.into_iter().max().unwrap_or(Time::ZERO)
}

/// The per-round communication patterns of the binomial broadcast used by
/// [`binomial_broadcast`] (round `r`: `i → i + 2^r`), for feeding the
/// simulators step by step.
pub fn binomial_broadcast_rounds(p: usize, bytes: usize) -> Vec<CommPattern> {
    let mut rounds = Vec::new();
    let mut round = 1usize;
    while round < p {
        let mut pat = CommPattern::new(p);
        for i in 0..round.min(p) {
            let dst = i + round;
            if dst < p {
                pat.add(i, dst, bytes);
            }
        }
        rounds.push(pat);
        round *= 2;
    }
    rounds
}

/// Lower bound for any schedule of an arbitrary pattern: no step can beat
/// its costliest message, nor the gap-limited operation rate of its
/// busiest processor.
pub fn lower_bound(params: &LogGpParams, pattern: &CommPattern) -> Time {
    let per_msg = pattern
        .network_messages()
        .map(|m| params.message_cost(m.bytes))
        .max()
        .unwrap_or(Time::ZERO);
    let sends = pattern.send_counts();
    let recvs = pattern.recv_counts();
    let per_proc = (0..pattern.procs())
        .map(|p| {
            let n = (sends[p] + recvs[p]) as u64;
            if n == 0 {
                Time::ZERO
            } else {
                params.gap * (n - 1) + params.overhead
            }
        })
        .max()
        .unwrap_or(Time::ZERO);
    per_msg.max(per_proc)
}

/// Convenience: run the standard simulator on `pattern` and return its
/// completion (used by the differential tests and the baseline bench).
pub fn simulated(params: &LogGpParams, pattern: &CommPattern) -> Time {
    standard::simulate(pattern, &SimConfig::new(*params)).finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{patterns, CommAlgo, SimScratch, StepRequest};
    use loggp::presets;

    fn machines() -> Vec<LogGpParams> {
        vec![
            presets::meiko_cs2(64),
            presets::intel_paragon(64),
            presets::myrinet_cluster(64),
            presets::ethernet_cluster(64),
        ]
    }

    #[test]
    fn point_to_point_matches_simulation() {
        for params in machines() {
            for bytes in [1, 64, 1100, 100_000] {
                let mut pat = CommPattern::new(2);
                pat.add(0, 1, bytes);
                assert_eq!(simulated(&params, &pat), point_to_point(&params, bytes));
            }
        }
    }

    #[test]
    fn linear_broadcast_matches_simulation() {
        for params in machines() {
            for p in [2usize, 3, 8, 17] {
                for bytes in [1, 1024] {
                    let pat = patterns::linear_broadcast(p, 0, bytes);
                    assert_eq!(
                        simulated(&params, &pat),
                        linear_broadcast(&params, p, bytes),
                        "p={p} bytes={bytes} on {params}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_matches_simulation() {
        for params in machines() {
            for p in [2usize, 5, 16] {
                for bytes in [1, 4096] {
                    let pat = patterns::gather(p, 0, bytes);
                    assert_eq!(
                        simulated(&params, &pat),
                        gather(&params, p, bytes),
                        "p={p} bytes={bytes} on {params}"
                    );
                }
            }
        }
    }

    #[test]
    fn shift_matches_simulation() {
        for params in machines() {
            for n in [2usize, 4, 9] {
                for k in [1usize, 3] {
                    for bytes in [1, 2000] {
                        if k % n == 0 {
                            continue; // self-shift: nothing on the network
                        }
                        let pat = patterns::shift(n, k, bytes);
                        assert_eq!(
                            simulated(&params, &pat),
                            shift(&params, bytes),
                            "n={n} k={k} bytes={bytes} on {params}"
                        );
                    }
                }
            }
        }
    }

    /// Chain the per-round patterns through the standard simulator the way
    /// the whole-program simulator does, and compare with the recursion.
    #[test]
    fn binomial_broadcast_matches_round_chained_simulation() {
        for params in machines() {
            for p in [1usize, 2, 3, 4, 7, 8, 16, 31] {
                for bytes in [1, 512] {
                    let cfg = SimConfig::new(params);
                    let mut ready = vec![Time::ZERO; p];
                    for pat in binomial_broadcast_rounds(p, bytes) {
                        let r = CommAlgo::Standard
                            .simulate(StepRequest::new(&pat, &cfg, &ready), &mut SimScratch::new());
                        for ev in r.timeline.events() {
                            ready[ev.proc] = ready[ev.proc].max(ev.end);
                        }
                    }
                    let sim = ready.into_iter().max().unwrap_or(Time::ZERO);
                    assert_eq!(
                        sim,
                        binomial_broadcast(&params, p, bytes),
                        "p={p} bytes={bytes} on {params}"
                    );
                }
            }
        }
    }

    #[test]
    fn lower_bound_is_a_lower_bound() {
        for params in machines() {
            for seed in 0..10 {
                let pat = patterns::random(8, 30, 4096, seed);
                assert!(simulated(&params, &pat) >= lower_bound(&params, &pat));
            }
            let a2a = patterns::all_to_all(8, 1024);
            assert!(simulated(&params, &a2a) >= lower_bound(&params, &a2a));
        }
    }

    #[test]
    fn broadcast_beats_linear_for_large_p() {
        // The whole point of tree broadcasts under LogGP.
        let params = presets::meiko_cs2(64);
        assert!(
            binomial_broadcast(&params, 32, 64) < linear_broadcast(&params, 32, 64),
            "binomial must beat linear at p=32"
        );
        // ... but not necessarily for tiny p where pipelining wins.
        assert_eq!(
            binomial_broadcast(&params, 2, 64),
            linear_broadcast(&params, 2, 64)
        );
    }

    #[test]
    #[should_panic(expected = "g >= o")]
    fn formulas_reject_g_below_o() {
        let bad = LogGpParams::from_us(1.0, 10.0, 2.0, 0.0, 4);
        let _ = linear_broadcast(&bad, 4, 10);
    }
}
