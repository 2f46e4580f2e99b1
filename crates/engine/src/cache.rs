//! The sharded step-pattern memo cache.
//!
//! Keys are [`StepKey`]s (canonical fingerprint of pattern × config ×
//! relative readiness); values are *normalized* simulation results —
//! schedules computed as if the earliest-ready processor entered the step
//! at time zero. Because the LogGP simulators are translation-invariant
//! (see [`crate::fingerprint`]), a cached normalized schedule shifted by
//! the step's base time is bit-identical to simulating the step directly.
//!
//! Shards are independent `RwLock` maps selected by the key's digest, so
//! concurrent workers rarely contend; hit/miss/insert/eviction counters
//! are lock-free atomics.

use crate::fingerprint::StepKey;
use commsim::{SimResult, SimScratch, StepEnds, Timeline};
use loggp::Time;
use predsim_core::{StepCall, StepSimulator};
use predsim_obs::{TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A normalized (base-time-zero) step schedule.
#[derive(Clone, Debug)]
struct CachedStep {
    procs: usize,
    events: Arc<[commsim::CommEvent]>,
    finish: Time,
    forced_sends: usize,
}

impl CachedStep {
    fn from_result(r: &SimResult) -> Self {
        CachedStep {
            procs: r.timeline.procs(),
            events: r.timeline.events().into(),
            finish: r.finish,
            forced_sends: r.forced_sends,
        }
    }

    /// Rebuild the concrete result with every event shifted by `base`.
    fn materialize(&self, base: Time) -> SimResult {
        let mut timeline = Timeline::new(self.procs);
        for ev in self.events.iter() {
            let mut ev = *ev;
            ev.start += base;
            ev.end += base;
            timeline.push(ev);
        }
        SimResult {
            timeline,
            finish: self.finish + base,
            forced_sends: self.forced_sends,
        }
    }
}

/// Monotonic cache counters (snapshot via [`MemoCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Normalized schedules stored.
    pub inserts: u64,
    /// Entries dropped because a shard reached capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

type Shard = RwLock<HashMap<StepKey, CachedStep>>;

/// Read-lock a shard. A panic while a lock was held cannot leave a shard
/// half-written (every critical section is a single map operation), so a
/// poisoned lock is recovered rather than propagated.
fn read(shard: &Shard) -> RwLockReadGuard<'_, HashMap<StepKey, CachedStep>> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock a shard, recovering from poisoning like [`read`].
fn write(shard: &Shard) -> RwLockWriteGuard<'_, HashMap<StepKey, CachedStep>> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// Sharded fingerprint → normalized-schedule map.
pub struct MemoCache {
    shards: Vec<Shard>,
    shard_capacity: usize,
    counters: Counters,
}

impl MemoCache {
    /// A cache with `shards` independent locks and at most
    /// `shard_capacity` entries per shard.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            shard_capacity > 0,
            "need room for at least one entry per shard"
        );
        MemoCache {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity,
            counters: Counters::default(),
        }
    }

    fn shard(&self, key: &StepKey) -> &Shard {
        // The digest already mixes every word; fold high bits in so shard
        // choice is not just the digest's low bits.
        let d = key.digest();
        &self.shards[((d ^ (d >> 32)) % self.shards.len() as u64) as usize]
    }

    /// Look up a normalized schedule and materialize it at `base`.
    pub fn get(&self, key: &StepKey, base: Time) -> Option<SimResult> {
        let found = read(self.shard(key)).get(key).cloned();
        match found {
            Some(step) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(step.materialize(base))
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store the *normalized* result of simulating `key` (the schedule as
    /// computed with base time zero).
    pub fn insert(&self, key: StepKey, normalized: &SimResult) {
        let mut shard = write(self.shard(&key));
        if shard.len() >= self.shard_capacity && !shard.contains_key(&key) {
            // Epoch eviction: drop the whole shard. Deterministic, O(1)
            // amortized, and a sweep's working set either fits (no
            // eviction ever) or cycles anyway.
            self.counters
                .evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        if shard
            .insert(key, CachedStep::from_result(normalized))
            .is_none()
        {
            self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            inserts: self.counters.inserts.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently cached, across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`StepSimulator`] that answers repeated steps from a [`MemoCache`].
///
/// Each step's readiness vector is normalized by its minimum; the key is
/// built over the relative offsets; on a miss the step is simulated *at
/// the relative offsets* (so the stored schedule is base-free) and shifted
/// back. Translation invariance of the LogGP algorithms makes the shifted
/// schedule bit-identical to simulating at the absolute times directly.
///
/// Traced and fault-injected steps ([`StepCall::is_plain`] false) bypass
/// the cache and are simulated directly: fault decisions are keyed by the
/// absolute step index, which the relative fingerprints cannot represent,
/// and a traced step must emit the events of its own operations.
///
/// Constructed with [`MemoStepSimulator::traced`], every lookup also emits
/// a [`TraceEvent::MemoHit`]/[`TraceEvent::MemoMiss`] event — purely
/// observational, the returned schedules are unaffected.
pub struct MemoStepSimulator<'a> {
    cache: &'a MemoCache,
    trace: Option<(&'a dyn TraceSink, u64)>,
    /// Miss-path scratch, kept alive across the whole job so cache misses
    /// reuse the same arenas the direct simulator would.
    scratch: SimScratch,
}

impl<'a> MemoStepSimulator<'a> {
    /// A simulator backed by `cache`.
    pub fn new(cache: &'a MemoCache) -> Self {
        MemoStepSimulator {
            cache,
            trace: None,
            scratch: SimScratch::new(),
        }
    }

    /// A simulator backed by `cache` that reports every hit and miss to
    /// `sink`, stamped with the engine job index `job` (`u64::MAX` when
    /// the lookup is not tied to a batch job).
    pub fn traced(cache: &'a MemoCache, sink: &'a dyn TraceSink, job: u64) -> Self {
        MemoStepSimulator {
            cache,
            trace: Some((sink, job)),
            scratch: SimScratch::new(),
        }
    }

    fn lookup(&mut self, call: &StepCall<'_>) -> SimResult {
        let step = call.index as u64;
        let base = call.ready.iter().copied().min().unwrap_or(Time::ZERO);
        let rel: Vec<Time> = call.ready.iter().map(|&t| t - base).collect();
        let key = StepKey::new(call.comm, call.opts, &rel);
        if let Some(hit) = self.cache.get(&key, base) {
            if let Some((sink, job)) = self.trace {
                sink.emit(&TraceEvent::MemoHit { job, step });
            }
            return hit;
        }
        if let Some((sink, job)) = self.trace {
            sink.emit(&TraceEvent::MemoMiss { job, step });
        }
        let normalized = StepCall {
            ready: &rel,
            ..*call
        }
        .run(&mut self.scratch);
        let shifted = CachedStep::from_result(&normalized).materialize(base);
        self.cache.insert(key, &normalized);
        shifted
    }
}

impl StepSimulator for MemoStepSimulator<'_> {
    fn simulate_step(&mut self, call: &StepCall<'_>, ends: &mut StepEnds) {
        let result = if call.is_plain() {
            self.lookup(call)
        } else {
            call.run(&mut self.scratch)
        };
        ends.reset(call.ready);
        ends.absorb(&result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{standard, CommAlgo, CommPattern, SimConfig, StepRequest};
    use loggp::presets;
    use predsim_core::{DirectStepSimulator, SimOptions};

    /// Run one plain step through `backend`, the way the fold does.
    fn step_ends(
        backend: &mut dyn StepSimulator,
        index: usize,
        comm: &CommPattern,
        opts: &SimOptions,
        ready: &[Time],
    ) -> StepEnds {
        let call = StepCall {
            index,
            comm,
            opts,
            ready,
            sink: None,
            faults: None,
        };
        let mut ends = StepEnds::default();
        backend.simulate_step(&call, &mut ends);
        ends
    }

    fn assert_same_ends(got: &StepEnds, want: &StepEnds) {
        assert_eq!(got.comm_done, want.comm_done);
        assert_eq!(got.last_recv_done, want.last_recv_done);
        assert_eq!(got.forced_sends, want.forced_sends);
    }

    fn pattern() -> CommPattern {
        let mut c = CommPattern::new(2);
        c.add(0, 1, 256);
        c
    }

    #[test]
    fn hit_materializes_shifted_schedule() {
        let cache = MemoCache::new(4, 16);
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
        let p = pattern();
        let rel = vec![Time::ZERO, Time::from_us(2.0)];
        let key = StepKey::new(&p, &opts, &rel);

        assert!(cache.get(&key, Time::ZERO).is_none());
        let normalized = CommAlgo::Standard.simulate(
            StepRequest::new(&p, &opts.cfg, &rel),
            &mut SimScratch::new(),
        );
        cache.insert(key.clone(), &normalized);

        let base = Time::from_us(100.0);
        let hit = cache.get(&key, base).expect("cached");
        assert_eq!(hit.finish, normalized.finish + base);
        for (a, b) in hit
            .timeline
            .events()
            .iter()
            .zip(normalized.timeline.events())
        {
            assert_eq!(a.start, b.start + base);
            assert_eq!(a.end, b.end + base);
            assert_eq!((a.proc, a.kind, a.msg_id), (b.proc, b.kind, b.msg_id));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn capacity_triggers_epoch_eviction() {
        let cache = MemoCache::new(1, 2);
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
        let normalized = standard::simulate(&pattern(), &opts.cfg);
        for bytes in 1..=5usize {
            let mut c = CommPattern::new(2);
            c.add(0, 1, bytes);
            let key = StepKey::new(&c, &opts, &[Time::ZERO, Time::ZERO]);
            cache.insert(key, &normalized);
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
        assert!(cache.len() <= 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn memo_simulator_matches_direct_on_hit_and_miss() {
        let cache = MemoCache::new(2, 64);
        let mut memo = MemoStepSimulator::new(&cache);
        let mut direct = DirectStepSimulator::new();
        let p = pattern();
        for opts in [
            SimOptions::new(SimConfig::new(presets::meiko_cs2(2))),
            SimOptions::new(SimConfig::new(presets::meiko_cs2(2))).worst_case(),
        ] {
            // Same relative shape at three different absolute bases: the
            // first call misses, the rest hit — all must equal direct.
            for base_us in [0.0, 55.0, 1234.5] {
                let ready = vec![Time::from_us(base_us), Time::from_us(base_us + 7.0)];
                let want = step_ends(&mut direct, 0, &p, &opts, &ready);
                let got = step_ends(&mut memo, 0, &p, &opts, &ready);
                assert_same_ends(&got, &want);
                // The materialized schedule itself is event-for-event the
                // direct one.
                let base = Time::from_us(base_us);
                let rel = vec![Time::ZERO, Time::from_us(7.0)];
                let cached = cache
                    .get(&StepKey::new(&p, &opts, &rel), base)
                    .expect("cached after the first call");
                let fresh = opts.algo.simulate(
                    StepRequest::new(&p, &opts.cfg, &ready),
                    &mut SimScratch::new(),
                );
                assert_eq!(cached.finish, fresh.finish);
                assert_eq!(cached.forced_sends, fresh.forced_sends);
                assert_eq!(cached.timeline.events(), fresh.timeline.events());
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "one miss per algorithm");
        assert_eq!(
            stats.hits,
            4 + 6,
            "three steps and three checks per algorithm"
        );
    }

    #[test]
    fn traced_memo_reports_hits_and_misses_without_changing_results() {
        let cache = MemoCache::new(2, 64);
        let sink = predsim_obs::MemorySink::new();
        let p = pattern();
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
        let ready = vec![Time::ZERO, Time::from_us(1.0)];
        let want = step_ends(&mut DirectStepSimulator::new(), 4, &p, &opts, &ready);

        let mut memo = MemoStepSimulator::traced(&cache, &sink, 9);
        let miss = step_ends(&mut memo, 4, &p, &opts, &ready);
        let hit = step_ends(&mut memo, 4, &p, &opts, &ready);
        assert_same_ends(&miss, &want);
        assert_same_ends(&hit, &want);
        assert_eq!(
            sink.events(),
            vec![
                TraceEvent::MemoMiss { job: 9, step: 4 },
                TraceEvent::MemoHit { job: 9, step: 4 },
            ]
        );
    }

    #[test]
    fn traced_and_faulted_steps_bypass_the_cache() {
        struct NoFaults;
        impl predsim_core::FaultHook for NoFaults {
            fn comp_charge(
                &self,
                _step: usize,
                _proc: usize,
                base: Time,
                _sink: Option<&dyn TraceSink>,
            ) -> Time {
                base
            }
            fn attempts(&self, _step: usize, _msg: &commsim::Message) -> u32 {
                1
            }
            fn rto(&self, _attempt: u32) -> Time {
                Time::ZERO
            }
        }
        let cache = MemoCache::new(2, 64);
        let mut memo = MemoStepSimulator::new(&cache);
        let p = pattern();
        let opts = SimOptions::new(SimConfig::new(presets::meiko_cs2(2)));
        let ready = vec![Time::ZERO, Time::from_us(1.0)];
        let want = step_ends(&mut DirectStepSimulator::new(), 0, &p, &opts, &ready);
        let sink = predsim_obs::MemorySink::new();
        let calls = [
            (Some(&sink as &dyn TraceSink), None),
            (None, Some(&NoFaults as _)),
        ];
        for (sink, faults) in calls {
            let call = StepCall {
                index: 0,
                comm: &p,
                opts: &opts,
                ready: &ready,
                sink,
                faults,
            };
            let mut ends = StepEnds::default();
            memo.simulate_step(&call, &mut ends);
            assert_same_ends(&ends, &want);
        }
        assert!(!sink.is_empty(), "the traced step reached the tracer");
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
