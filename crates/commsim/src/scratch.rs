//! Reusable simulation state: flat per-processor buffers, the arena-backed
//! send queues, and the indexed min-time frontier.
//!
//! The hot loops in [`crate::standard`] and [`crate::worstcase`] keep all
//! their per-processor state in a [`SimScratch`]: plain parallel `Vec`s
//! (structure-of-arrays) instead of a `Vec` of per-processor structs, and a
//! single message arena with cursor ranges instead of one `VecDeque` per
//! processor. A `SimScratch` can be reused across simulations — every
//! buffer is cleared, not reallocated, so a whole-program simulation or a
//! parameter sweep pays the allocations once. The whole-program simulator
//! (`predsim-core`'s `DirectStepSimulator`) holds one across steps.
//!
//! The [`Frontier`] replaces the standard algorithm's per-operation O(P)
//! minimum scan with a binary heap of `(ready_time, proc)` keys. Stale
//! entries are invalidated lazily through per-processor generation
//! counters (the classic event-queue trick; dslab-core's clock queue is
//! the reference design), so an update is a push, never a linear search.
//! Entries pop in ascending `(time, proc)` order, which makes the heap
//! order reproduce the reference implementation's lowest-id tie-break
//! exactly.

use crate::pattern::{CommPattern, Message};
use loggp::{ProcClock, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A message in flight, keyed by `(arrival, message id)` for the receive
/// queue — the id tie-break makes the order total and the simulation
/// deterministic. Instead of embedding the full [`Message`], only the
/// message's arena slot rides along (the arena outlives every in-flight
/// entry within a step), keeping the entry at 16 bytes so heap sifts and
/// inbox sorts move a third of the memory the full struct would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct InFlight {
    pub(crate) arrival: Time,
    /// `Message::id`, the ordering tie-break.
    pub(crate) id: u32,
    /// Index of the message in [`SimScratch::arena`].
    pub(crate) slot: u32,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // (arrival, id) is already unique per step; slot merely keeps the
        // derived ordering total for the type.
        (self.arrival, self.id, self.slot).cmp(&(other.arrival, other.id, other.slot))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Indexed min-time frontier over the processors that still want to send.
///
/// Each processor has at most one *live* heap entry, identified by its
/// current generation; superseded entries stay in the heap and are skipped
/// when they surface (lazy deletion). `pop_min` therefore returns the
/// processor with the smallest `(ready_time, id)` pair in O(log n) amortized.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    heap: BinaryHeap<Reverse<(Time, u32, u32)>>,
    gen: Vec<u32>,
}

impl Frontier {
    /// Empty the frontier and size it for `procs` processors.
    pub(crate) fn reset(&mut self, procs: usize) {
        self.heap.clear();
        self.gen.clear();
        self.gen.resize(procs, 0);
    }

    /// Set processor `p`'s key, superseding any previous entry.
    pub(crate) fn update(&mut self, p: usize, key: Time) {
        self.gen[p] = self.gen[p].wrapping_add(1);
        self.heap.push(Reverse((key, p as u32, self.gen[p])));
    }

    /// Drop processor `p` from the frontier (its entry, if any, goes stale).
    pub(crate) fn remove(&mut self, p: usize) {
        self.gen[p] = self.gen[p].wrapping_add(1);
    }

    /// Pop the live entry with the smallest `(time, proc)` key. The popped
    /// processor keeps its generation; if it is not the one chosen to act,
    /// put it back with [`Frontier::restore`].
    pub(crate) fn pop_min(&mut self) -> Option<(Time, u32)> {
        while let Some(Reverse((t, p, g))) = self.heap.pop() {
            if self.gen[p as usize] == g {
                return Some((t, p));
            }
        }
        None
    }

    /// Pop the next live entry iff its key equals `key` (used to collect
    /// the full tie set after [`Frontier::pop_min`]; live entries surface
    /// in ascending processor order for equal keys).
    pub(crate) fn pop_if_at(&mut self, key: Time) -> Option<u32> {
        while let Some(&Reverse((t, p, g))) = self.heap.peek() {
            if self.gen[p as usize] != g {
                self.heap.pop();
                continue;
            }
            if t != key {
                return None;
            }
            self.heap.pop();
            return Some(p);
        }
        None
    }

    /// Re-insert an entry popped by [`Frontier::pop_min`] /
    /// [`Frontier::pop_if_at`] whose processor was *not* chosen (its state,
    /// and hence its key and generation, are unchanged).
    pub(crate) fn restore(&mut self, p: u32, key: Time) {
        self.heap.push(Reverse((key, p, self.gen[p as usize])));
    }

    /// The raw heap top's `(key, proc)` — possibly a *stale* entry. The
    /// top is minimal over all entries, live ones included, so a candidate
    /// strictly below it is strictly below every live entry; see the
    /// hold-the-min fast path in `standard::sim_core`.
    #[inline]
    pub(crate) fn peek_raw(&self) -> Option<(Time, u32)> {
        self.heap.peek().map(|&Reverse((t, p, _))| (t, p))
    }
}

const PLACEHOLDER: Message = Message {
    id: 0,
    src: 0,
    dst: 0,
    bytes: 0,
};

/// Reusable buffers for the simulation algorithms.
///
/// Construct once (e.g. per worker thread, or inside a
/// `DirectStepSimulator`) and pass to [`crate::CommAlgo::simulate`]; every
/// simulation clears the buffers but keeps their capacity, so repeated
/// steps allocate nothing in the steady state. The scratch carries no
/// state between runs that could affect results — simulations are
/// bit-identical whether the scratch is fresh or reused.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Per-processor LogGP clocks.
    pub(crate) clocks: Vec<ProcClock>,
    /// All network messages, grouped by source, program order within each.
    pub(crate) arena: Vec<Message>,
    /// Per-processor cursor of the next unsent arena message.
    pub(crate) q_start: Vec<u32>,
    /// Per-processor end offset (exclusive) of its arena range.
    pub(crate) q_end: Vec<u32>,
    fill: Vec<u32>,
    /// Standard algorithm: per-processor in-flight message heaps.
    pub(crate) recv_queues: Vec<BinaryHeap<Reverse<InFlight>>>,
    /// Standard algorithm: min-time frontier over pending senders.
    pub(crate) frontier: Frontier,
    /// Standard algorithm: tie buffer for [`crate::TieBreak::Random`].
    pub(crate) tied: Vec<u32>,
    /// Worst-case algorithm: per-processor undelivered-message inboxes.
    pub(crate) inboxes: Vec<Vec<InFlight>>,
    /// Worst-case algorithm: remaining receives before a processor may send.
    pub(crate) to_recv: Vec<u32>,
    /// Retime: per-processor cursor into the recording's arena snapshot.
    pub(crate) rt_cursor: Vec<u32>,
    /// Retime: per-message "send committed" flags and arrival times
    /// (arrivals are only read once the flag is set, so stale values from a
    /// previous retime are harmless).
    pub(crate) rt_sent: Vec<bool>,
    pub(crate) rt_arrival: Vec<Time>,
    /// Retime: per-processor index of the next recorded main-loop pop.
    pub(crate) rt_next_pop: Vec<u32>,
    /// Retime: per-processor key of the last committed main-loop pop.
    pub(crate) rt_last_key: Vec<(Time, u32)>,
    /// Retime: per-processor minimum key among in-flight drain-bound
    /// messages (append-only during the main loop).
    pub(crate) rt_drain_min: Vec<(Time, u32)>,
    /// Retime: drain-phase gather/sort buffer.
    pub(crate) rt_drain: Vec<InFlight>,
}

impl SimScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset the clocks to `ready` and rebuild the send arena for
    /// `pattern` (a counting sort of the network messages by source),
    /// reusing all existing capacity.
    pub(crate) fn begin(&mut self, pattern: &CommPattern, ready: &[Time]) {
        let procs = pattern.procs();
        assert_eq!(ready.len(), procs, "one ready time per processor");
        self.clocks.clear();
        self.clocks.extend(ready.iter().map(|&r| {
            let mut c = ProcClock::new();
            c.advance_to(r);
            c
        }));

        self.q_end.clear();
        self.q_end.resize(procs, 0);
        let mut total = 0u32;
        for m in pattern.network_messages() {
            self.q_end[m.src] += 1;
            total += 1;
        }
        self.q_start.clear();
        self.fill.clear();
        let mut acc = 0u32;
        for p in 0..procs {
            self.q_start.push(acc);
            self.fill.push(acc);
            acc += self.q_end[p];
            self.q_end[p] = acc; // count -> exclusive end offset
        }
        self.arena.clear();
        self.arena.resize(total as usize, PLACEHOLDER);
        for m in pattern.network_messages() {
            let slot = self.fill[m.src] as usize;
            self.arena[slot] = *m;
            self.fill[m.src] += 1;
        }
    }

    /// [`SimScratch::begin`] plus the standard algorithm's receive heaps
    /// and frontier.
    pub(crate) fn begin_standard(&mut self, pattern: &CommPattern, ready: &[Time]) {
        self.begin(pattern, ready);
        let procs = pattern.procs();
        if self.recv_queues.len() < procs {
            self.recv_queues.resize_with(procs, BinaryHeap::new);
        }
        for q in &mut self.recv_queues[..procs] {
            q.clear();
        }
        self.frontier.reset(procs);
    }

    /// [`SimScratch::begin`] plus the worst-case algorithm's inboxes and
    /// receive counters.
    pub(crate) fn begin_worstcase(&mut self, pattern: &CommPattern, ready: &[Time]) {
        self.begin(pattern, ready);
        let procs = pattern.procs();
        if self.inboxes.len() < procs {
            self.inboxes.resize_with(procs, Vec::new);
        }
        for inbox in &mut self.inboxes[..procs] {
            inbox.clear();
        }
        self.to_recv.clear();
        self.to_recv.resize(procs, 0);
        for m in pattern.network_messages() {
            self.to_recv[m.dst] += 1;
        }
    }

    /// Reset state for [`crate::replay`]'s timeline-free re-timing: clocks
    /// from `ready`, send cursors from the recording's arena-snapshot
    /// offsets `q_start0`, and the per-message / per-processor
    /// verification buffers. Unlike [`SimScratch::begin`] this never
    /// touches the arena — retime reads messages from the recording.
    pub(crate) fn begin_retime(
        &mut self,
        ready: &[Time],
        q_start0: &[u32],
        msgs: usize,
        procs: usize,
    ) {
        assert_eq!(ready.len(), procs, "one ready time per processor");
        self.clocks.clear();
        self.clocks.extend(ready.iter().map(|&r| {
            let mut c = ProcClock::new();
            c.advance_to(r);
            c
        }));
        self.rt_cursor.clear();
        self.rt_cursor.extend_from_slice(q_start0);
        self.rt_sent.clear();
        self.rt_sent.resize(msgs, false);
        if self.rt_arrival.len() < msgs {
            self.rt_arrival.resize(msgs, Time::ZERO);
        }
        self.rt_next_pop.clear();
        self.rt_next_pop.resize(procs, 0);
        self.rt_last_key.clear();
        self.rt_last_key.resize(procs, (Time::ZERO, 0));
        self.rt_drain_min.clear();
        self.rt_drain_min.resize(procs, (Time::MAX, u32::MAX));
    }

    /// True iff processor `p` still has unsent messages.
    #[inline]
    pub(crate) fn has_sends(&self, p: usize) -> bool {
        self.q_start[p] < self.q_end[p]
    }

    /// Pop processor `p`'s next unsent message (program order), returning
    /// its arena slot alongside (the slot goes into [`InFlight`] entries).
    #[inline]
    pub(crate) fn pop_send(&mut self, p: usize) -> (u32, Message) {
        debug_assert!(self.has_sends(p));
        let slot = self.q_start[p];
        let msg = self.arena[slot as usize];
        self.q_start[p] += 1;
        (slot, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_groups_by_source_in_program_order() {
        let mut p = CommPattern::new(3);
        p.add(1, 2, 10);
        p.add(0, 1, 20);
        p.add(1, 0, 30);
        p.add(2, 2, 99); // self-message: excluded
        let mut s = SimScratch::new();
        s.begin(&p, &[Time::ZERO; 3]);
        assert_eq!(s.arena.len(), 3);
        // P0's range: one message (id 1); P1's: ids 0 then 2; P2's: empty.
        assert_eq!((s.q_start[0], s.q_end[0]), (0, 1));
        assert_eq!((s.q_start[1], s.q_end[1]), (1, 3));
        assert_eq!((s.q_start[2], s.q_end[2]), (3, 3));
        assert_eq!(s.arena[0].id, 1);
        assert_eq!(s.arena[1].id, 0);
        assert_eq!(s.arena[2].id, 2);
        assert!(s.has_sends(1));
        assert_eq!(s.pop_send(1), (1, s.arena[1]));
        assert_eq!(s.pop_send(1).1.id, 2);
        assert!(!s.has_sends(1));
        assert!(!s.has_sends(2));
    }

    #[test]
    fn scratch_reuse_rebuilds_cleanly() {
        let mut a = CommPattern::new(2);
        a.add(0, 1, 1);
        a.add(1, 0, 2);
        let mut s = SimScratch::new();
        s.begin_standard(&a, &[Time::ZERO; 2]);
        s.pop_send(0);
        // Smaller second pattern: all cursors and buffers must reset.
        let mut b = CommPattern::new(2);
        b.add(1, 0, 7);
        s.begin_standard(&b, &[Time::from_us(5.0), Time::ZERO]);
        assert!(!s.has_sends(0));
        assert!(s.has_sends(1));
        assert_eq!(s.pop_send(1).1.bytes, 7);
        assert_eq!(s.clocks[0].last_end(), Time::from_us(5.0));
    }

    #[test]
    fn frontier_pops_in_time_then_proc_order() {
        let mut f = Frontier::default();
        f.reset(4);
        f.update(2, Time::from_us(5.0));
        f.update(0, Time::from_us(5.0));
        f.update(1, Time::from_us(3.0));
        f.update(3, Time::from_us(9.0));
        let (t, p) = f.pop_min().unwrap();
        assert_eq!((t, p), (Time::from_us(3.0), 1));
        // Equal keys surface lowest processor first.
        let (t, p) = f.pop_min().unwrap();
        assert_eq!((t, p), (Time::from_us(5.0), 0));
        assert_eq!(f.pop_if_at(Time::from_us(5.0)), Some(2));
        assert_eq!(f.pop_if_at(Time::from_us(5.0)), None);
        assert_eq!(f.pop_min().unwrap().1, 3);
        assert!(f.pop_min().is_none());
    }

    #[test]
    fn frontier_update_supersedes_and_restore_revives() {
        let mut f = Frontier::default();
        f.reset(2);
        f.update(0, Time::from_us(1.0));
        f.update(1, Time::from_us(2.0));
        f.update(0, Time::from_us(8.0)); // supersedes the 1.0 entry
        let (t, p) = f.pop_min().unwrap();
        assert_eq!((t, p), (Time::from_us(2.0), 1));
        f.restore(1, t); // not chosen after all
        f.remove(1);
        let (t, p) = f.pop_min().unwrap();
        assert_eq!((t, p), (Time::from_us(8.0), 0));
        assert!(f.pop_min().is_none());
    }
}
