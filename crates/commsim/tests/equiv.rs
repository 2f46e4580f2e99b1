//! Differential equivalence suite: the optimized hot loops must be
//! **bit-identical** to the straightforward reference encodings in
//! `commsim::reference`, across every dimension that can change a
//! timeline — pattern shape, LogGP parameters, gap rule, tie-break policy
//! and seed, fault plans, and custom arrival hooks (including misbehaving
//! ones, which both sides clamp identically). A second group pins the
//! incremental-replay invariant: whenever `Recording::replay` accepts, its
//! output equals a full re-simulation, and the worst-case replay accepts
//! unconditionally.

use commsim::faults::StepFaults;
use commsim::{
    patterns, reference, CommAlgo, CommPattern, Message, SimConfig, SimResult, SimScratch,
    StepRequest, StepTracer, TieBreak,
};
use loggp::{LogGpParams, Time};
use predsim_obs::MemorySink;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = LogGpParams> {
    (
        0u64..50_000, // L ns
        1u64..20_000, // o ns
        0u64..50_000, // gap surplus over o, ns
        0u64..100,    // G ns/byte
    )
        .prop_map(|(l, o, extra, g)| LogGpParams {
            latency: Time::from_ns(l),
            overhead: Time::from_ns(o),
            gap: Time::from_ns(o + extra),
            gap_per_byte: Time::from_ns(g),
            procs: 0, // fixed up by caller
        })
}

fn arb_pattern() -> impl Strategy<Value = CommPattern> {
    (2usize..12, 0usize..40, proptest::bool::ANY, any::<u64>()).prop_map(|(n, msgs, dag, seed)| {
        if dag {
            patterns::random_dag(n, msgs, 4096, seed)
        } else {
            patterns::random(n, msgs, 4096, seed)
        }
    })
}

fn arb_ready() -> impl Strategy<Value = Vec<Time>> {
    proptest::collection::vec(0u64..100_000u64, 12..13)
        .prop_map(|v| v.into_iter().map(Time::from_ns).collect())
}

fn make_cfg(
    params: LogGpParams,
    procs: usize,
    random_ties: bool,
    classic: bool,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::new(params.with_procs(procs)).with_seed(seed);
    if random_ties {
        cfg.tie_break = TieBreak::Random;
    }
    if classic {
        cfg = cfg.with_classic_gap_rule();
    }
    cfg
}

/// Seed-driven fault plan: a pure function of the message id, as the
/// [`StepFaults`] contract requires.
struct HashDrops {
    seed: u64,
}

impl StepFaults for HashDrops {
    fn attempts(&self, msg: &Message) -> u32 {
        let h = (msg.id as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed);
        1 + ((h >> 33) % 3) as u32
    }
    fn rto(&self, attempt: u32) -> Time {
        Time::from_us(50.0) * (attempt as u64 + 1)
    }
}

/// A plain request through a fresh scratch.
fn simulate_from(
    algo: CommAlgo,
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
) -> SimResult {
    algo.simulate(
        StepRequest::new(pattern, cfg, ready),
        &mut SimScratch::new(),
    )
}

fn assert_same(label: &str, new: &commsim::SimResult, old: &commsim::SimResult) {
    assert_eq!(
        new.timeline.events(),
        old.timeline.events(),
        "{label}: commit order diverged"
    );
    assert_eq!(new.finish, old.finish, "{label}: finish diverged");
    assert_eq!(
        new.forced_sends, old.forced_sends,
        "{label}: forced_sends diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Optimized standard loop ≡ reference, across patterns × params ×
    /// gap rules × tie seeds × ready times, with the default arrival model
    /// and no faults.
    #[test]
    fn standard_matches_reference(
        params in arb_params(),
        pattern in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, random_ties, classic, seed);
        let ready = &ready[..procs];
        let new = simulate_from(CommAlgo::Standard, &pattern, &cfg, ready);
        let old = reference::standard_simulate_from(&pattern, &cfg, ready);
        assert_same("standard", &new, &old);
    }

    /// Optimized worst-case loop ≡ reference under the same dimensions
    /// (cyclic patterns exercise the forced-send RNG path).
    #[test]
    fn worstcase_matches_reference(
        params in arb_params(),
        pattern in arb_pattern(),
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, false, classic, seed);
        let ready = &ready[..procs];
        let new = simulate_from(CommAlgo::WorstCase, &pattern, &cfg, ready);
        let old = reference::worstcase_simulate_from(&pattern, &cfg, ready);
        assert_same("worstcase", &new, &old);
    }

    /// Equivalence holds under fault injection and a custom (contract-
    /// obeying) arrival hook simultaneously.
    #[test]
    fn faulted_hooked_runs_match_reference(
        params in arb_params(),
        pattern in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
        fault_seed in any::<u64>(),
        jitter_ns in 0u64..10_000,
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, random_ties, classic, seed);
        let ready = &ready[..procs];
        let faults = HashDrops { seed: fault_seed };
        let params = cfg.params;
        let hook = move |m: &Message, start: Time| {
            params.arrival_time(start, m.bytes) + Time::from_ns(jitter_ns * (m.id as u64 % 5))
        };

        let mut h1 = hook;
        let new_std = CommAlgo::Standard.simulate(
            StepRequest::new(&pattern, &cfg, ready).with_arrival(&mut h1).with_faults(&faults),
            &mut SimScratch::new(),
        );
        let mut h2 = hook;
        let old_std = reference::standard_simulate_faulted(
            &pattern, &cfg, ready, &mut h2, None, Some(&faults));
        assert_same("standard+faults+hook", &new_std, &old_std);

        let mut h3 = hook;
        let new_wc = CommAlgo::WorstCase.simulate(
            StepRequest::new(&pattern, &cfg, ready).with_arrival(&mut h3).with_faults(&faults),
            &mut SimScratch::new(),
        );
        let mut h4 = hook;
        let old_wc = reference::worstcase_simulate_faulted(
            &pattern, &cfg, ready, &mut h4, None, Some(&faults));
        assert_same("worstcase+faults+hook", &new_wc, &old_wc);
    }

    /// A *misbehaving* arrival hook (violating `arrival ≥ start + o`) is
    /// clamped identically by both encodings — release-mode soundness, not
    /// just debug asserts.
    #[test]
    fn misbehaving_hooks_clamp_identically(
        params in arb_params(),
        pattern in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
        shrink_den in 2u64..10,
    ) {
        let procs = pattern.procs();
        let cfg = make_cfg(params, procs, random_ties, classic, seed);
        let ready = &ready[..procs];
        let params = cfg.params;
        // Divides the true arrival: often lands before start + o.
        let hook = move |m: &Message, start: Time| {
            Time::from_ps(params.arrival_time(start, m.bytes).as_ps() / shrink_den)
        };
        let mut h1 = hook;
        let new = CommAlgo::Standard.simulate(
            StepRequest::new(&pattern, &cfg, ready).with_arrival(&mut h1),
            &mut SimScratch::new(),
        );
        let mut h2 = hook;
        let old = reference::standard_simulate_faulted(&pattern, &cfg, ready, &mut h2, None, None);
        assert_same("standard+clamped-hook", &new, &old);
        let mut h3 = hook;
        let new_wc = CommAlgo::WorstCase.simulate(
            StepRequest::new(&pattern, &cfg, ready).with_arrival(&mut h3),
            &mut SimScratch::new(),
        );
        let mut h4 = hook;
        let old_wc = reference::worstcase_simulate_faulted(&pattern, &cfg, ready, &mut h4, None, None);
        assert_same("worstcase+clamped-hook", &new_wc, &old_wc);
    }

    /// A reused scratch never changes results: interleaving differently
    /// shaped simulations through one scratch is bit-identical to fresh
    /// runs — plain, traced, fault-injected, and both at once, with the
    /// emitted trace streams identical too.
    #[test]
    fn scratch_reuse_matches_fresh(
        params in arb_params(),
        a in arb_pattern(),
        b in arb_pattern(),
        random_ties in proptest::bool::ANY,
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
        fault_seed in any::<u64>(),
    ) {
        let faults = HashDrops { seed: fault_seed };
        let mut scratch = SimScratch::new();
        for pattern in [&a, &b, &a] {
            let procs = pattern.procs();
            let cfg = make_cfg(params, procs, random_ties, classic, seed);
            let ready = &ready[..procs];
            for algo in [CommAlgo::Standard, CommAlgo::WorstCase] {
                for (traced, faulted) in [(false, false), (true, false), (false, true), (true, true)] {
                    let run = |sink: &MemorySink, scratch: &mut SimScratch| {
                        let tracer = StepTracer::new(sink, 3);
                        let mut req = StepRequest::new(pattern, &cfg, ready);
                        if traced {
                            req = req.with_tracer(&tracer);
                        }
                        if faulted {
                            req = req.with_faults(&faults);
                        }
                        algo.simulate(req, scratch)
                    };
                    let (reused_sink, fresh_sink) = (MemorySink::new(), MemorySink::new());
                    let reused = run(&reused_sink, &mut scratch);
                    let fresh = run(&fresh_sink, &mut SimScratch::new());
                    let label = format!("{algo:?} scratch reuse traced={traced} faulted={faulted}");
                    assert_same(&label, &reused, &fresh);
                    prop_assert_eq!(reused_sink.events(), fresh_sink.events(), "{}", label);
                }
            }
        }
    }

    /// Incremental re-simulation ≡ full re-simulation for param-only
    /// changes: whenever the standard replay accepts a new parameter set,
    /// its timeline is bit-identical to simulating from scratch; recording
    /// itself is also bit-identical to a plain run, and replaying at the
    /// recorded parameters always accepts.
    #[test]
    fn standard_replay_equals_full_resim(
        pattern in arb_pattern(),
        base in arb_params(),
        alt in arb_params(),
        classic in proptest::bool::ANY,
        ready in arb_ready(),
    ) {
        let procs = pattern.procs();
        let base_cfg = make_cfg(base, procs, false, classic, 0);
        let ready = &ready[..procs];
        let mut scratch = SimScratch::new();
        let (recorded, rec) = CommAlgo::Standard.record(&pattern, &base_cfg, ready, &mut scratch);
        let direct = simulate_from(CommAlgo::Standard, &pattern, &base_cfg, ready);
        assert_same("recording run", &recorded, &direct);

        // Replaying at the *same* params must always accept and agree.
        let same = rec.replay(&pattern, &base_cfg, ready, &mut scratch)
            .expect("replay at recorded params always valid");
        assert_same("replay@same", &same, &direct);

        // At different params, accept ⇒ bit-identical to a full run.
        let alt_cfg = make_cfg(alt, procs, false, classic, 0);
        if let Some(replayed) = rec.replay(&pattern, &alt_cfg, ready, &mut scratch) {
            let full = simulate_from(CommAlgo::Standard, &pattern, &alt_cfg, ready);
            assert_same("replay@alt", &replayed, &full);
        }
    }

    /// The worst-case replay is unconditional: any parameter change (same
    /// seed) replays exactly.
    #[test]
    fn worstcase_replay_equals_full_resim(
        pattern in arb_pattern(),
        base in arb_params(),
        alt in arb_params(),
        classic in proptest::bool::ANY,
        seed in any::<u64>(),
        ready in arb_ready(),
    ) {
        let procs = pattern.procs();
        let base_cfg = make_cfg(base, procs, false, classic, seed);
        let ready = &ready[..procs];
        let mut scratch = SimScratch::new();
        let (recorded, rec) = CommAlgo::WorstCase.record(&pattern, &base_cfg, ready, &mut scratch);
        let direct = simulate_from(CommAlgo::WorstCase, &pattern, &base_cfg, ready);
        assert_same("wc recording run", &recorded, &direct);

        let alt_cfg = make_cfg(alt, procs, false, classic, seed);
        let replayed = rec.replay(&pattern, &alt_cfg, ready, &mut scratch)
            .expect("worst-case replay is unconditional for matching seeds");
        let full = simulate_from(CommAlgo::WorstCase, &pattern, &alt_cfg, ready);
        assert_same("wc replay@alt", &replayed, &full);
    }
}
