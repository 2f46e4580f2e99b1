//! Incremental re-simulation: record a step's commit order once, then
//! re-time it under different LogGP parameters without re-running event
//! selection.
//!
//! Parameter sweeps (`ge-sweep`, calibration search) simulate the same
//! communication patterns over and over with only L/o/g/G changing. The
//! *times* change, but the *decisions* — which processor acts next, send
//! vs. receive, where a deadlock is broken — usually do not. A
//! [`Recording`] captures those decisions from one full simulation;
//! [`Recording::replay`] replays them under new parameters in one linear
//! pass over the ops, recomputing every timestamp from the recorded order.
//!
//! Replay is exact or it is refused — there is no approximation path:
//!
//! - **Worst-case algorithm**: the round structure (who sends in which
//!   round, the blocked sets, the RNG draws that break deadlocks) depends
//!   only on the pattern, never on the parameters, because part 2 of every
//!   round fully drains the inboxes. Replaying the recorded sends and
//!   round boundaries under any parameters reproduces the full simulation
//!   bit-for-bit, as long as the seed matches the recording.
//! - **Standard algorithm**: the commit order *can* shift with parameters
//!   (a receive can overtake a send). Replay is therefore **verified**: at
//!   every recorded op it re-checks, under the new parameters, that the
//!   selection the recording dictates is the one the full algorithm would
//!   make — the acting processor's send-ready time is globally minimal
//!   (enforced via monotonicity of the selection key and of processor ids
//!   within equal keys) and the send/receive choice matches the
//!   `start_send < start_recv` rule. Any violation aborts the replay
//!   (`None`) and the caller falls back to a full simulation. Random
//!   tie-breaking is never replayed (tie-set sizes, and hence RNG
//!   consumption, are parameter-dependent).
//!
//! `tests/equiv.rs` proptests pin `replay ≡ full re-simulation` whenever
//! replay succeeds. Recordings assume the default LogGP arrival model and
//! no fault injection (the sweep/calibration configuration).
//!
//! [`Recording::retime`] is the same verified re-timing with the output
//! stripped to what parameter sweeps actually consume: the per-processor
//! completion maxima ([`StepEnds`]) instead of a full [`Timeline`]. It goes
//! two steps further than [`Recording::replay`]: the recording carries a
//! snapshot of the message arena (no per-call counting sort) and the
//! *identities* of the main-loop receives, so retime needs no receive
//! heaps at all. Instead of extracting minima it verifies them: each pop's
//! `(arrival, id)` key must be non-decreasing per processor, every
//! drain-bound key must be at least the destination's last main-loop pop
//! key, and the send/receive choice rule is checked against the exact
//! pending minimum (the next recorded pop if its message is in flight —
//! a not-yet-sent one arrives strictly after the current selection key —
//! or the smallest in-flight drain-bound arrival). A recording accepted
//! by retime yields bit-identical maxima to the full simulation; retime
//! refuses whenever replay would, plus in the rare case where new
//! parameters reorder which message a pop takes (replay can re-time that
//! by re-extracting minima; retime falls back to a full simulation).

use crate::faults::transmit;
use crate::pattern::{CommPattern, Message};
use crate::scratch::{InFlight, SimScratch};
use crate::timeline::{CommEvent, SimResult, Timeline};
use crate::{standard, worstcase, CommAlgo, SimConfig, TieBreak};
use loggp::{OpKind, Time};
use std::cmp::Reverse;

/// Per-processor completion data of one re-timed communication step —
/// everything the whole-program fold consumes, without materializing a
/// [`Timeline`]. Produced by [`Recording::retime`]; reusable across steps
/// (the buffers are cleared, not reallocated).
#[derive(Clone, Debug, Default)]
pub struct StepEnds {
    /// Per processor: end of its last committed operation, at least the
    /// step-entry ready time (the fold's next-computation start under
    /// no-overlap semantics).
    pub comm_done: Vec<Time>,
    /// Per processor: end of its last committed *receive*, at least the
    /// step-entry ready time (the fold's next-computation start under
    /// receive-only overlap).
    pub last_recv_done: Vec<Time>,
    /// Forced transmissions (worst-case algorithm on cyclic patterns).
    pub forced_sends: usize,
}

impl StepEnds {
    /// Reset to the step-entry ready times (every per-processor maximum
    /// starts from `ready[p]`).
    pub fn reset(&mut self, ready: &[Time]) {
        self.comm_done.clear();
        self.comm_done.extend_from_slice(ready);
        self.last_recv_done.clear();
        self.last_recv_done.extend_from_slice(ready);
        self.forced_sends = 0;
    }

    /// Fold a fully-simulated step's timeline into the maxima — the
    /// fallback path when a recording refuses to re-time. Equivalent to
    /// what [`Recording::retime`] computes on the fast path.
    pub fn absorb(&mut self, result: &SimResult) {
        for ev in result.timeline.events() {
            let d = &mut self.comm_done[ev.proc];
            *d = (*d).max(ev.end);
            if ev.kind == OpKind::Recv {
                let r = &mut self.last_recv_done[ev.proc];
                *r = (*r).max(ev.end);
            }
        }
        self.forced_sends += result.forced_sends;
    }
}

/// The commit order of one simulated step (see module docs).
///
/// Ops encode `proc << 1 | bit` — the bit is the operation kind for the
/// standard algorithm (0 = send, 1 = receive) and the forced flag for the
/// worst-case algorithm, whose round boundaries are `u32::MAX` sentinels.
#[derive(Clone, Debug)]
pub struct Recording {
    algo: CommAlgo,
    procs: usize,
    msgs: usize,
    seed: u64,
    replayable: bool,
    ops: Vec<u32>,
    /// Snapshot of the scratch arena for the recorded pattern: network
    /// messages grouped by source, with the initial per-processor cursor
    /// offsets in `q_start` and the exclusive ends in `q_end`. Retime runs
    /// directly off this copy instead of re-sorting the pattern per call.
    arena: Vec<Message>,
    q_start: Vec<u32>,
    q_end: Vec<u32>,
    /// Standard algorithm: arena slots of the main-loop receives, grouped
    /// per receiving processor in pop order
    /// (`pop_offsets[p]..pop_offsets[p + 1]` indexes `pop_slots`).
    pop_slots: Vec<u32>,
    pop_offsets: Vec<u32>,
    /// Standard algorithm: slots received in the drain phase, grouped by
    /// destination, plus a per-slot membership flag.
    drain_slots: Vec<u32>,
    drain_offsets: Vec<u32>,
    is_drain: Vec<bool>,
}

/// Buffers filled by the recording hot loops: the commit-order ops and,
/// for the standard algorithm, the arena slot of each main-loop receive
/// (aligned with the receive ops in order).
#[derive(Default)]
pub(crate) struct RecBufs {
    pub(crate) ops: Vec<u32>,
    pub(crate) recv_slots: Vec<u32>,
}

impl Recording {
    /// Which algorithm this recording replays.
    pub fn algo(&self) -> CommAlgo {
        self.algo
    }

    /// False iff replay will always refuse (standard algorithm under
    /// [`TieBreak::Random`]).
    pub fn is_replayable(&self) -> bool {
        self.replayable
    }

    /// Number of recorded ops (diagnostics).
    pub fn ops_len(&self) -> usize {
        self.ops.len()
    }

    /// Re-time this recording under `cfg` (same pattern and ready times it
    /// was recorded from, typically different `cfg.params`). Returns the
    /// bit-exact equivalent of the corresponding full simulation, or
    /// `None` if the recorded order is not provably valid under the new
    /// parameters — fall back to a full simulation then.
    pub fn replay(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
    ) -> Option<SimResult> {
        match self.algo {
            CommAlgo::Standard => self.replay_standard(pattern, cfg, ready, scratch),
            CommAlgo::WorstCase => self.replay_worstcase(pattern, cfg, ready, scratch),
        }
    }

    fn replay_standard(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
    ) -> Option<SimResult> {
        if !self.replayable || cfg.tie_break != TieBreak::LowestId || self.procs != pattern.procs()
        {
            return None;
        }
        let params = &cfg.params;
        let rule = cfg.gap_rule;
        scratch.begin_standard(pattern, ready);
        if scratch.arena.len() != self.msgs {
            return None;
        }
        let procs = self.procs;
        let mut timeline = Timeline::new(procs);
        timeline.reserve(2 * self.msgs);

        // Selection-key monotonicity state. The main loop always commits at
        // the globally minimal (send_ready, proc) pair, so the sequence of
        // those keys is non-decreasing lexicographically. Conversely, if a
        // recorded sequence satisfies that and every per-op check below, it
        // IS the sequence the full algorithm produces: a wrongly-skipped
        // processor keeps its (smaller) key untouched until its own next
        // recorded op, where the descent is caught.
        let mut prev_t = Time::ZERO;
        let mut prev_p = 0usize;

        for &op in &self.ops {
            let p = (op >> 1) as usize;
            let is_recv = op & 1 == 1;
            // Only processors with sends left participate in the main loop.
            if p >= procs || !scratch.has_sends(p) {
                return None;
            }
            let t = scratch.clocks[p].ready_at_kind(params, rule, OpKind::Send);
            if t < prev_t || (t == prev_t && p < prev_p) {
                return None;
            }
            prev_t = t;
            prev_p = p;

            let start_recv = match scratch.recv_queues[p].peek() {
                Some(Reverse(inflight)) => scratch.clocks[p].earliest_start_kind(
                    params,
                    rule,
                    OpKind::Recv,
                    inflight.arrival,
                ),
                None => Time::MAX,
            };
            if is_recv {
                // Receives win ties: chosen iff start_recv <= start_send.
                if start_recv > t {
                    return None;
                }
                let Reverse(inflight) = scratch.recv_queues[p].pop()?;
                let msg = scratch.arena[inflight.slot as usize];
                let end = scratch.clocks[p].commit_kind(params, rule, OpKind::Recv, start_recv);
                timeline.push(CommEvent {
                    proc: p,
                    kind: OpKind::Recv,
                    peer: msg.src,
                    bytes: msg.bytes,
                    msg_id: msg.id,
                    start: start_recv,
                    end,
                });
            } else {
                if t >= start_recv {
                    return None;
                }
                let (slot, msg) = scratch.pop_send(p);
                let final_start = transmit(
                    &mut scratch.clocks[p],
                    params,
                    rule,
                    p,
                    &msg,
                    false,
                    None,
                    None,
                    &mut timeline,
                );
                let arrival = params.arrival_time(final_start, msg.bytes);
                scratch.recv_queues[msg.dst].push(Reverse(InFlight {
                    arrival,
                    id: msg.id as u32,
                    slot,
                }));
            }
        }

        // The main loop only ends when no sends remain.
        if (0..procs).any(|p| scratch.has_sends(p)) {
            return None;
        }
        standard::drain(params, cfg, scratch, None, &mut timeline);
        Some(SimResult::new(timeline))
    }

    fn replay_worstcase(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
    ) -> Option<SimResult> {
        // The RNG stream that chose the forced sends is baked into the ops;
        // a different seed would have chosen differently.
        if self.seed != cfg.seed || self.procs != pattern.procs() {
            return None;
        }
        let params = &cfg.params;
        let rule = cfg.gap_rule;
        scratch.begin_worstcase(pattern, ready);
        if scratch.arena.len() != self.msgs {
            return None;
        }
        let procs = self.procs;
        let mut timeline = Timeline::new(procs);
        timeline.reserve(2 * self.msgs);
        let mut forced_sends = 0usize;

        for &op in &self.ops {
            if op == u32::MAX {
                // Round boundary: part 2 drains everything delivered so far.
                worstcase::wc_drain(scratch, &mut timeline, params, rule, None, procs);
                continue;
            }
            let p = (op >> 1) as usize;
            let forced = op & 1 == 1;
            if p >= procs || !scratch.has_sends(p) {
                return None;
            }
            let (slot, msg) = scratch.pop_send(p);
            let final_start = transmit(
                &mut scratch.clocks[p],
                params,
                rule,
                p,
                &msg,
                forced,
                None,
                None,
                &mut timeline,
            );
            let arrival = params.arrival_time(final_start, msg.bytes);
            scratch.inboxes[msg.dst].push(InFlight {
                arrival,
                id: msg.id as u32,
                slot,
            });
            if forced {
                forced_sends += 1;
            }
        }
        if (0..procs).any(|p| scratch.has_sends(p)) {
            return None;
        }

        let mut result = SimResult::new(timeline);
        result.forced_sends = forced_sends;
        Some(result)
    }

    /// [`Recording::replay`] without the timeline: re-time this recording
    /// under `cfg` computing only the per-processor completion maxima the
    /// whole-program fold consumes, into `out` (buffers reused across
    /// calls). Returns `false` with `out` left in an unspecified state
    /// when the recorded order is not provably valid under `cfg` — retime
    /// refuses whenever [`Recording::replay`] would, and additionally when
    /// the new parameters reorder which in-flight message a receive takes
    /// (see module docs); fall back to a full simulation then. On `true`
    /// the maxima equal what [`StepEnds::absorb`] would extract from the
    /// corresponding full simulation. This is the sweep fast path: no
    /// arena rebuild, no receive heaps, no per-event `CommEvent`
    /// construction, no per-step timeline allocation.
    pub fn retime(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
        out: &mut StepEnds,
    ) -> bool {
        match self.algo {
            CommAlgo::Standard => self.retime_standard(pattern, cfg, ready, scratch, out),
            CommAlgo::WorstCase => self.retime_worstcase(pattern, cfg, ready, scratch, out),
        }
    }

    fn retime_standard(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
        out: &mut StepEnds,
    ) -> bool {
        if !self.replayable || cfg.tie_break != TieBreak::LowestId || self.procs != pattern.procs()
        {
            return false;
        }
        let params = &cfg.params;
        let rule = cfg.gap_rule;
        let procs = self.procs;
        scratch.begin_retime(ready, &self.q_start, self.msgs, procs);
        out.reset(ready);

        // Same selection-key monotonicity as `replay_standard` (see the
        // comment there). The receive heaps are replaced by the recorded
        // pop identities: a pop is valid iff its key does not descend
        // within its processor's pop sequence (drain keys included via the
        // boundary check below) — in a valid run later-sent messages
        // arrive after the current selection key, so a descent is exactly
        // a pop that was not the pending minimum.
        let mut prev_t = Time::ZERO;
        let mut prev_p = 0usize;

        for &op in &self.ops {
            let p = (op >> 1) as usize;
            let is_recv = op & 1 == 1;
            if p >= procs || scratch.rt_cursor[p] >= self.q_end[p] {
                return false;
            }
            let t = scratch.clocks[p].ready_at_kind(params, rule, OpKind::Send);
            if t < prev_t || (t == prev_t && p < prev_p) {
                return false;
            }
            prev_t = t;
            prev_p = p;

            if is_recv {
                let idx = (self.pop_offsets[p] + scratch.rt_next_pop[p]) as usize;
                // In range by construction: ops and pop_slots come from
                // the same recorded run.
                let slot = self.pop_slots[idx] as usize;
                scratch.rt_next_pop[p] += 1;
                if !scratch.rt_sent[slot] {
                    return false;
                }
                let arrival = scratch.rt_arrival[slot];
                let key = (arrival, self.arena[slot].id as u32);
                if key < scratch.rt_last_key[p] {
                    return false;
                }
                scratch.rt_last_key[p] = key;
                let start_recv =
                    scratch.clocks[p].earliest_start_kind(params, rule, OpKind::Recv, arrival);
                if start_recv > t {
                    return false;
                }
                let end = scratch.clocks[p].commit_kind(params, rule, OpKind::Recv, start_recv);
                out.comm_done[p] = out.comm_done[p].max(end);
                out.last_recv_done[p] = out.last_recv_done[p].max(end);
            } else {
                // The send is chosen only if no pending receive could
                // start at or before `t`. The pending minimum is the next
                // recorded main-loop pop if its message is in flight (one
                // not yet sent is committed at a later selection key and
                // so arrives strictly after `t`), and separately the
                // smallest in-flight drain-bound arrival.
                let idx = self.pop_offsets[p] + scratch.rt_next_pop[p];
                if idx < self.pop_offsets[p + 1] {
                    let s = self.pop_slots[idx as usize] as usize;
                    if scratch.rt_sent[s] {
                        let start_recv = scratch.clocks[p].earliest_start_kind(
                            params,
                            rule,
                            OpKind::Recv,
                            scratch.rt_arrival[s],
                        );
                        if t >= start_recv {
                            return false;
                        }
                    }
                }
                let (dm, _) = scratch.rt_drain_min[p];
                if dm != Time::MAX {
                    let start_recv =
                        scratch.clocks[p].earliest_start_kind(params, rule, OpKind::Recv, dm);
                    if t >= start_recv {
                        return false;
                    }
                }
                let slot = scratch.rt_cursor[p] as usize;
                scratch.rt_cursor[p] += 1;
                let msg = self.arena[slot];
                // `t` is the send's ready time; committing at it is exactly
                // what `transmit` does for the fault-free recording model.
                let end = scratch.clocks[p].commit_kind(params, rule, OpKind::Send, t);
                out.comm_done[p] = out.comm_done[p].max(end);
                let arrival = params.arrival_time(t, msg.bytes);
                scratch.rt_sent[slot] = true;
                scratch.rt_arrival[slot] = arrival;
                if self.is_drain[slot] {
                    let key = (arrival, msg.id as u32);
                    if key < scratch.rt_drain_min[msg.dst] {
                        scratch.rt_drain_min[msg.dst] = key;
                    }
                }
            }
        }

        if (0..procs).any(|p| scratch.rt_cursor[p] < self.q_end[p]) {
            return false;
        }
        // Drain phase: the drain *set* is fixed by the recording, the
        // order is (arrival, id) under the new parameters. Main-loop
        // validity additionally requires every drain key to be at least
        // the destination's last main-loop pop key — a message below it
        // was pending when that pop committed, so the pop was not the
        // minimum.
        for p in 0..procs {
            let range = self.drain_offsets[p] as usize..self.drain_offsets[p + 1] as usize;
            if range.is_empty() {
                continue;
            }
            scratch.rt_drain.clear();
            for &slot in &self.drain_slots[range] {
                scratch.rt_drain.push(InFlight {
                    arrival: scratch.rt_arrival[slot as usize],
                    id: self.arena[slot as usize].id as u32,
                    slot,
                });
            }
            scratch.rt_drain.sort_unstable();
            let first = scratch.rt_drain[0];
            if (first.arrival, first.id) < scratch.rt_last_key[p] {
                return false;
            }
            let clock = &mut scratch.clocks[p];
            for &f in &scratch.rt_drain {
                let start = clock.earliest_start_kind(params, rule, OpKind::Recv, f.arrival);
                let end = clock.commit_kind(params, rule, OpKind::Recv, start);
                out.comm_done[p] = out.comm_done[p].max(end);
                out.last_recv_done[p] = out.last_recv_done[p].max(end);
            }
        }
        true
    }

    fn retime_worstcase(
        &self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
        out: &mut StepEnds,
    ) -> bool {
        if self.seed != cfg.seed || self.procs != pattern.procs() {
            return false;
        }
        let params = &cfg.params;
        let rule = cfg.gap_rule;
        let procs = self.procs;
        scratch.begin_retime(ready, &self.q_start, self.msgs, procs);
        if scratch.inboxes.len() < procs {
            scratch.inboxes.resize_with(procs, Vec::new);
        }
        for inbox in &mut scratch.inboxes[..procs] {
            inbox.clear();
        }
        out.reset(ready);

        for &op in &self.ops {
            if op == u32::MAX {
                // Round boundary: drain every inbox, timeline-free.
                for p in 0..procs {
                    if scratch.inboxes[p].is_empty() {
                        continue;
                    }
                    let mut inbox = std::mem::take(&mut scratch.inboxes[p]);
                    inbox.sort_unstable();
                    for &inflight in &inbox {
                        let clock = &mut scratch.clocks[p];
                        let start =
                            clock.earliest_start_kind(params, rule, OpKind::Recv, inflight.arrival);
                        let end = clock.commit_kind(params, rule, OpKind::Recv, start);
                        out.comm_done[p] = out.comm_done[p].max(end);
                        out.last_recv_done[p] = out.last_recv_done[p].max(end);
                    }
                    inbox.clear();
                    scratch.inboxes[p] = inbox;
                }
                continue;
            }
            let p = (op >> 1) as usize;
            let forced = op & 1 == 1;
            if p >= procs || scratch.rt_cursor[p] >= self.q_end[p] {
                return false;
            }
            let slot = scratch.rt_cursor[p];
            scratch.rt_cursor[p] += 1;
            let msg = self.arena[slot as usize];
            let start = scratch.clocks[p].ready_at_kind(params, rule, OpKind::Send);
            let end = scratch.clocks[p].commit_kind(params, rule, OpKind::Send, start);
            out.comm_done[p] = out.comm_done[p].max(end);
            let arrival = params.arrival_time(start, msg.bytes);
            scratch.inboxes[msg.dst].push(InFlight {
                arrival,
                id: msg.id as u32,
                slot,
            });
            if forced {
                out.forced_sends += 1;
            }
        }
        (0..procs).all(|p| scratch.rt_cursor[p] >= self.q_end[p])
    }
}

/// Snapshot the scratch arena after a recorded run. The per-run cursors in
/// `scratch.q_start` have advanced to the range ends, so the initial
/// offsets are reconstructed from the (stable) exclusive ends.
fn arena_snapshot(scratch: &SimScratch, procs: usize) -> (Vec<Message>, Vec<u32>, Vec<u32>) {
    let q_end = scratch.q_end[..procs].to_vec();
    let mut q_start = Vec::with_capacity(procs);
    let mut prev_end = 0u32;
    for &end in &q_end {
        q_start.push(prev_end);
        prev_end = end;
    }
    (scratch.arena.clone(), q_start, q_end)
}

impl CommAlgo {
    /// Run this algorithm and record its commit order. The result is
    /// bit-identical to [`CommAlgo::simulate`] on a plain
    /// [`StepRequest::new`](crate::StepRequest::new) with the same inputs;
    /// recordings assume the default arrival model and no faults. The
    /// standard algorithm's recording replays only under
    /// [`TieBreak::LowestId`]; the worst-case one under the same seed.
    pub fn record(
        self,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
        scratch: &mut SimScratch,
    ) -> (SimResult, Recording) {
        match self {
            CommAlgo::Standard => record_standard(pattern, cfg, ready, scratch),
            CommAlgo::WorstCase => record_worstcase(pattern, cfg, ready, scratch),
        }
    }
}

fn record_standard(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    scratch: &mut SimScratch,
) -> (SimResult, Recording) {
    let params = cfg.params;
    let mut bufs = RecBufs::default();
    let result = standard::sim_core(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        None,
        None,
        scratch,
        Some(&mut bufs),
    );
    let procs = pattern.procs();
    let msgs = scratch.arena.len();
    let (arena, q_start, q_end) = arena_snapshot(scratch, procs);

    // Group the main-loop pops per receiving processor (counting sort over
    // the recorded ops) and mark everything else as drain-bound.
    let RecBufs { ops, recv_slots } = bufs;
    let mut pop_offsets = vec![0u32; procs + 1];
    for &op in &ops {
        if op & 1 == 1 {
            pop_offsets[(op >> 1) as usize + 1] += 1;
        }
    }
    for p in 0..procs {
        pop_offsets[p + 1] += pop_offsets[p];
    }
    let mut fill = pop_offsets[..procs].to_vec();
    let mut pop_slots = vec![0u32; recv_slots.len()];
    let mut is_drain = vec![true; msgs];
    let mut ri = 0usize;
    for &op in &ops {
        if op & 1 == 1 {
            let p = (op >> 1) as usize;
            let slot = recv_slots[ri];
            ri += 1;
            pop_slots[fill[p] as usize] = slot;
            fill[p] += 1;
            is_drain[slot as usize] = false;
        }
    }
    let mut drain_offsets = vec![0u32; procs + 1];
    for (slot, m) in arena.iter().enumerate() {
        if is_drain[slot] {
            drain_offsets[m.dst + 1] += 1;
        }
    }
    for p in 0..procs {
        drain_offsets[p + 1] += drain_offsets[p];
    }
    let mut fill = drain_offsets[..procs].to_vec();
    let mut drain_slots = vec![0u32; msgs - recv_slots.len()];
    for (slot, m) in arena.iter().enumerate() {
        if is_drain[slot] {
            drain_slots[fill[m.dst] as usize] = slot as u32;
            fill[m.dst] += 1;
        }
    }

    let rec = Recording {
        algo: CommAlgo::Standard,
        procs,
        msgs,
        seed: cfg.seed,
        replayable: cfg.tie_break == TieBreak::LowestId,
        ops,
        arena,
        q_start,
        q_end,
        pop_slots,
        pop_offsets,
        drain_slots,
        drain_offsets,
        is_drain,
    };
    (result, rec)
}

fn record_worstcase(
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    scratch: &mut SimScratch,
) -> (SimResult, Recording) {
    let params = cfg.params;
    let mut ops = Vec::new();
    let result = worstcase::wc_core(
        pattern,
        cfg,
        ready,
        &mut |m, start| params.arrival_time(start, m.bytes),
        None,
        None,
        scratch,
        Some(&mut ops),
    );
    let procs = pattern.procs();
    let (arena, q_start, q_end) = arena_snapshot(scratch, procs);
    let rec = Recording {
        algo: CommAlgo::WorstCase,
        procs,
        msgs: arena.len(),
        seed: cfg.seed,
        replayable: true,
        ops,
        arena,
        q_start,
        q_end,
        // The worst-case re-timing never consults the pop/drain tables.
        pop_slots: Vec::new(),
        pop_offsets: Vec::new(),
        drain_slots: Vec::new(),
        drain_offsets: Vec::new(),
        is_drain: Vec::new(),
    };
    (result, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use loggp::{presets, LogGpParams};

    fn meiko_cfg(procs: usize) -> SimConfig {
        SimConfig::new(presets::meiko_cs2(procs))
    }

    fn simulate_from(
        algo: CommAlgo,
        pattern: &CommPattern,
        cfg: &SimConfig,
        ready: &[Time],
    ) -> SimResult {
        algo.simulate(
            crate::StepRequest::new(pattern, cfg, ready),
            &mut SimScratch::new(),
        )
    }

    fn scaled(params: LogGpParams, num: u64, den: u64) -> LogGpParams {
        LogGpParams {
            latency: Time::from_ps(params.latency.as_ps() * num / den),
            overhead: Time::from_ps(params.overhead.as_ps() * num / den),
            gap: Time::from_ps(params.gap.as_ps() * num / den),
            gap_per_byte: Time::from_ps(params.gap_per_byte.as_ps() * num / den),
            ..params
        }
    }

    #[test]
    fn recorded_run_matches_direct_simulation() {
        let pattern = patterns::all_to_all(6, 512);
        let cfg = meiko_cfg(6);
        let mut scratch = SimScratch::new();
        let (rec_result, _) =
            CommAlgo::Standard.record(&pattern, &cfg, &[Time::ZERO; 6], &mut scratch);
        let direct = standard::simulate(&pattern, &cfg);
        assert_eq!(rec_result.timeline.events(), direct.timeline.events());
    }

    #[test]
    fn standard_replay_matches_full_resim_under_new_params() {
        let pattern = patterns::all_to_all(6, 512);
        let base = meiko_cfg(6);
        let mut scratch = SimScratch::new();
        let ready = vec![Time::ZERO; 6];
        let (_, rec) = CommAlgo::Standard.record(&pattern, &base, &ready, &mut scratch);
        assert!(rec.is_replayable());
        // Mild parameter changes keep the commit order valid.
        for (num, den) in [(11, 10), (9, 10), (13, 10)] {
            let cfg = SimConfig {
                params: scaled(base.params, num, den),
                ..base
            };
            let replayed = rec
                .replay(&pattern, &cfg, &ready, &mut scratch)
                .expect("mild scaling keeps order valid");
            let full = simulate_from(CommAlgo::Standard, &pattern, &cfg, &ready);
            assert_eq!(replayed.timeline.events(), full.timeline.events());
            assert_eq!(replayed.finish, full.finish);
        }
    }

    #[test]
    fn worstcase_replay_is_exact_for_any_params() {
        let pattern = patterns::ring(7, 256); // cyclic: exercises forced sends
        let base = meiko_cfg(7).with_seed(5);
        let ready = vec![Time::ZERO; 7];
        let mut scratch = SimScratch::new();
        let (_, rec) = CommAlgo::WorstCase.record(&pattern, &base, &ready, &mut scratch);
        // Even drastic parameter changes replay exactly (round structure is
        // parameter-independent).
        for (num, den) in [(1, 10), (10, 1), (17, 3)] {
            let cfg = SimConfig {
                params: scaled(base.params, num, den),
                ..base
            };
            let replayed = rec
                .replay(&pattern, &cfg, &ready, &mut scratch)
                .expect("worst-case replay is unconditional");
            let full = simulate_from(CommAlgo::WorstCase, &pattern, &cfg, &ready);
            assert_eq!(replayed.timeline.events(), full.timeline.events());
            assert_eq!(replayed.forced_sends, full.forced_sends);
        }
    }

    #[test]
    fn worstcase_replay_refuses_wrong_seed() {
        let pattern = patterns::ring(5, 64);
        let cfg = meiko_cfg(5).with_seed(7);
        let ready = vec![Time::ZERO; 5];
        let mut scratch = SimScratch::new();
        let (_, rec) = CommAlgo::WorstCase.record(&pattern, &cfg, &ready, &mut scratch);
        let other = meiko_cfg(5).with_seed(8);
        assert!(rec.replay(&pattern, &other, &ready, &mut scratch).is_none());
    }

    #[test]
    fn random_tie_break_recordings_refuse_replay() {
        let pattern = patterns::all_to_all(4, 128);
        let cfg = meiko_cfg(4).with_random_ties(3);
        let ready = vec![Time::ZERO; 4];
        let mut scratch = SimScratch::new();
        let (result, rec) = CommAlgo::Standard.record(&pattern, &cfg, &ready, &mut scratch);
        // Recording under Random still simulates correctly...
        let direct = standard::simulate(&pattern, &cfg);
        assert_eq!(result.timeline.events(), direct.timeline.events());
        // ...but refuses to replay (RNG consumption is param-dependent).
        assert!(!rec.is_replayable());
        assert!(rec.replay(&pattern, &cfg, &ready, &mut scratch).is_none());
    }

    /// The per-processor maxima [`StepEnds::absorb`] extracts from a full
    /// simulation, for comparison with [`Recording::retime`] output.
    fn ends_of(result: &SimResult, ready: &[Time]) -> StepEnds {
        let mut ends = StepEnds::default();
        ends.reset(ready);
        ends.absorb(result);
        ends
    }

    #[test]
    fn retime_matches_replay_acceptance_and_ends() {
        // Across standard + worst-case recordings and mild-to-wild scaling:
        // retime never accepts a run replay refuses, its maxima equal those
        // of the replayed (= full) timeline whenever it accepts, unchanged
        // parameters always retime, and worst-case retime (whose acceptance
        // is unconditional given the seed) matches replay exactly.
        let ready: Vec<Time> = (0..8).map(|p| Time::from_us(p as f64 * 3.0)).collect();
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        for pattern in [
            patterns::all_to_all(8, 512),
            patterns::ring(8, 256),
            patterns::random(8, 24, 2048, 17),
        ] {
            let base = meiko_cfg(8).with_seed(3);
            let (_, st) = CommAlgo::Standard.record(&pattern, &base, &ready, &mut scratch);
            let (_, wc) = CommAlgo::WorstCase.record(&pattern, &base, &ready, &mut scratch);
            for rec in [&st, &wc] {
                for (num, den) in [(1, 1), (11, 10), (2, 1), (1, 3), (17, 3)] {
                    let cfg = SimConfig {
                        params: scaled(base.params, num, den),
                        ..base
                    };
                    let replayed = rec.replay(&pattern, &cfg, &ready, &mut scratch);
                    let accepted = rec.retime(&pattern, &cfg, &ready, &mut scratch, &mut ends);
                    if accepted {
                        assert!(
                            replayed.is_some(),
                            "retime accepted a run replay refuses at {num}/{den}"
                        );
                    }
                    if (num, den) == (1, 1) || rec.algo() == CommAlgo::WorstCase {
                        assert!(accepted, "must retime at {num}/{den}");
                    }
                    if accepted {
                        let expect = ends_of(&replayed.unwrap(), &ready);
                        assert_eq!(ends.comm_done, expect.comm_done, "{num}/{den}");
                        assert_eq!(ends.last_recv_done, expect.last_recv_done, "{num}/{den}");
                        assert_eq!(ends.forced_sends, expect.forced_sends, "{num}/{den}");
                    }
                }
            }
        }
    }

    #[test]
    fn retime_refuses_exactly_like_replay_on_bad_inputs() {
        let pattern = patterns::ring(5, 64);
        let cfg = meiko_cfg(5).with_seed(7);
        let ready = vec![Time::ZERO; 5];
        let mut scratch = SimScratch::new();
        let mut ends = StepEnds::default();
        // Wrong seed on a worst-case recording.
        let (_, wc) = CommAlgo::WorstCase.record(&pattern, &cfg, &ready, &mut scratch);
        let other = meiko_cfg(5).with_seed(8);
        assert!(!wc.retime(&pattern, &other, &ready, &mut scratch, &mut ends));
        // Random-tie standard recordings never re-time.
        let rnd = meiko_cfg(5).with_random_ties(3);
        let (_, st) = CommAlgo::Standard.record(&pattern, &rnd, &ready, &mut scratch);
        assert!(!st.retime(&pattern, &rnd, &ready, &mut scratch, &mut ends));
    }

    #[test]
    fn standard_replay_bails_when_order_becomes_invalid() {
        // A chain whose receive/send interleaving flips when latency
        // collapses: with huge L the downstream processor sends its own
        // message before the upstream one arrives; with L=0 the arrival
        // overtakes it. Replay must detect the flip and refuse rather than
        // produce a wrong timeline.
        let mut pattern = CommPattern::new(3);
        pattern.add(0, 1, 1); // arrives at 1 late under big L
        pattern.add(1, 2, 1); // P1's own send
        let base = SimConfig::new(LogGpParams {
            latency: Time::from_us(1000.0),
            ..presets::meiko_cs2(3)
        });
        let ready = vec![Time::ZERO; 3];
        let mut scratch = SimScratch::new();
        let (_, rec) = CommAlgo::Standard.record(&pattern, &base, &ready, &mut scratch);
        let collapsed = SimConfig::new(LogGpParams {
            latency: Time::ZERO,
            overhead: Time::ZERO,
            gap: Time::from_ns(1),
            ..base.params
        });
        match rec.replay(&pattern, &collapsed, &ready, &mut scratch) {
            None => {} // refused: fine
            Some(replayed) => {
                // If it claims validity it must be bit-exact.
                let full = simulate_from(CommAlgo::Standard, &pattern, &collapsed, &ready);
                assert_eq!(replayed.timeline.events(), full.timeline.events());
            }
        }
    }
}
