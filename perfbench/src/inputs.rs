//! Seeded workload inputs.
//!
//! Every input is a `/v1/predict` job object, so the served and the
//! in-process workloads parse the same bytes into the same `JobSpec`s.
//! Each workload's inputs are a pure function of its seed: the program
//! under test receives only the generated bodies.

use std::collections::HashSet;

/// splitmix64: small, fast, and the same sequence on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the different
    /// draws of one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Draws from a fixed set of values like cards from a deck: every value
/// once, in seeded order, then reshuffled. Each value's share of the
/// draws is the same on every seed, so the work a seed's inputs carry
/// varies little; only which draws get which values changes.
pub struct Deck<T> {
    values: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(values: &[T]) -> Deck<T> {
        Deck {
            values: values.to_vec(),
            next: values.len(),
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.values.len() {
            rng.shuffle(&mut self.values);
            self.next = 0;
        }
        self.next += 1;
        self.values[self.next - 1]
    }
}

/// The machine presets `serve-predict` draws from.
pub const SERVE_MACHINES: [&str; 3] = ["meiko", "paragon", "myrinet"];

/// The five presets of `machine-sweep`, the recording's own machine first.
pub const PRESETS: [&str; 5] = ["meiko", "paragon", "myrinet", "ethernet", "ideal"];

/// One `/v1/predict` job object.
pub fn body(source: &str, machine: &str, worst_case: bool) -> String {
    format!(r#"{{"source":"{source}","machine":"{machine}","worst_case":{worst_case}}}"#)
}

/// Distinct bodies in the `serve-predict` pool (a whole number of family decks).
pub const SERVE_POOL: usize = 500;

/// The `serve-predict` pool: [`SERVE_POOL`] distinct bodies in first-use
/// order. Each run of ten holds two of each family (GE, stencil, Cannon,
/// APSP, collective) in seeded order. Every parameter, the machine and
/// the algorithm are dealt from decks, so each value's share of the pool
/// is the same on every seed.
pub fn serve_pool(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let mut decks = ServeDecks::new();
    let mut families = Deck::new(&[0u8, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(SERVE_POOL);
    while pool.len() < SERVE_POOL {
        let family = families.draw(&mut rng);
        // Redraw until the body is new; every family's space is several
        // times larger than its share of the pool.
        loop {
            let b = decks.body(&mut rng, family);
            if seen.insert(b.clone()) {
                pool.push(b);
                break;
            }
        }
    }
    pool
}

struct ServeDecks {
    machine: Deck<&'static str>,
    worst_case: Deck<bool>,
    ge_block: Deck<usize>,
    layout: Deck<&'static str>,
    stencil_n: Deck<usize>,
    stencil_p: Deck<usize>,
    stencil_iters: Deck<usize>,
    cannon_n: Deck<usize>,
    cannon_q: Deck<usize>,
    apsp_n: Deck<usize>,
    apsp_block: Deck<usize>,
    coll_p: Deck<usize>,
    coll_bytes: Deck<usize>,
    coll_kind: Deck<u8>,
}

impl ServeDecks {
    fn new() -> ServeDecks {
        ServeDecks {
            machine: Deck::new(&SERVE_MACHINES),
            worst_case: Deck::new(&[false, true]),
            ge_block: Deck::new(&gauss::PAPER_BLOCK_SIZES),
            layout: Deck::new(&["diagonal", "row"]),
            stencil_n: Deck::new(&[256, 512, 1024]),
            stencil_p: Deck::new(&[8, 9, 10, 11, 12, 13, 14, 15, 16]),
            stencil_iters: Deck::new(&[10, 20, 30, 40, 50]),
            cannon_n: Deck::new(&[120, 240, 360, 480, 600, 720]),
            cannon_q: Deck::new(&[2, 3, 4, 5, 6]),
            apsp_n: Deck::new(&[240, 480]),
            apsp_block: Deck::new(&[24, 30, 40, 48, 60, 80]),
            coll_p: Deck::new(&[8, 16, 32]),
            coll_bytes: Deck::new(&[1024, 4096, 16384, 65536]),
            coll_kind: Deck::new(&[0, 1, 2]),
        }
    }

    fn body(&mut self, rng: &mut Rng, family: u8) -> String {
        let source = match family {
            0 => format!(
                "ge:960,{},{},8",
                self.ge_block.draw(rng),
                self.layout.draw(rng)
            ),
            1 => format!(
                "stencil:{},{},{}",
                self.stencil_n.draw(rng),
                self.stencil_p.draw(rng),
                self.stencil_iters.draw(rng)
            ),
            2 => format!(
                "cannon:{},{}",
                self.cannon_n.draw(rng),
                self.cannon_q.draw(rng)
            ),
            3 => format!(
                "apsp:{},{},{},8",
                self.apsp_n.draw(rng),
                self.apsp_block.draw(rng),
                self.layout.draw(rng)
            ),
            _ => {
                let (p, bytes) = (self.coll_p.draw(rng), self.coll_bytes.draw(rng));
                match self.coll_kind.draw(rng) {
                    0 => format!("bcast:{p}:{bytes}"),
                    1 => format!("reduce:{p}:{bytes}:1000"),
                    _ => format!("allreduce:{p}:{bytes}:1000"),
                }
            }
        };
        body(&source, self.machine.draw(rng), self.worst_case.draw(rng))
    }
}

/// The `serve-predict` request stream: indices into [`serve_pool`].
///
/// Requests come in pairs, one fresh body (the next unsent one of the
/// pool, wrapping once the pool is spent) and one repeat of a body sent
/// earlier, in seeded order; the very first request is fresh.
pub struct ServeStream {
    rng: Rng,
    next_fresh: usize,
    sent: usize,
    fresh_second: bool,
}

impl ServeStream {
    pub fn new(seed: u64) -> ServeStream {
        ServeStream {
            rng: Rng::new(seed, 2),
            next_fresh: 0,
            sent: 0,
            fresh_second: false,
        }
    }

    /// Pool index of the next request.
    pub fn next_index(&mut self) -> usize {
        if self.sent.is_multiple_of(2) {
            self.fresh_second = self.sent > 0 && self.rng.coin();
        }
        let fresh = (self.sent % 2 == 1) == self.fresh_second;
        self.sent += 1;
        if fresh {
            let i = self.next_fresh % SERVE_POOL;
            self.next_fresh += 1;
            i
        } else {
            self.rng.below(self.next_fresh.min(SERVE_POOL))
        }
    }
}

/// The paper's block-size sweep: GE n = 960, P = 8, every paper block
/// size, both layouts, standard and worst-case, on meiko (56 bodies, in
/// canonical order; the seed only permutes submission order).
pub fn sweep_bodies() -> Vec<String> {
    let mut out = Vec::new();
    for layout in ["diagonal", "row"] {
        for b in gauss::PAPER_BLOCK_SIZES {
            for wc in [false, true] {
                out.push(body(&format!("ge:960,{b},{layout},8"), "meiko", wc));
            }
        }
    }
    out
}

/// Batch variants per `scale-p` run.
pub const SCALE_VARIANTS: usize = 8;

/// Stencil iteration counts and collective payloads (KiB) of `scale-p`:
/// each family takes every value once across the variants.
const SCALE_ITERS: [usize; SCALE_VARIANTS] = [12, 13, 14, 15, 16, 17, 18, 19];
const SCALE_KIB: [usize; SCALE_VARIANTS] = [1, 2, 4, 6, 8, 10, 12, 16];
/// Iterations of the P = 1024 stencil. Its worst-case job is most of a
/// batch's work, so it is the same in every variant: batches then cost
/// about the same, and the latency percentiles measure the system rather
/// than which variant a seed made heaviest.
const SCALE_ITERS_P1024: usize = 16;

/// The `scale-p` batches: [`SCALE_VARIANTS`] variants of stencil
/// (N = 4P) at P ∈ {64, 256, 1024} and all-reduce and broadcast at
/// P ∈ {256, 1024}, each standard and worst-case, on meiko. The seed
/// deals the iteration counts at P ∈ {64, 256} and the payloads to the
/// variants.
pub fn scale_batches(seed: u64) -> Vec<Vec<String>> {
    let mut rng = Rng::new(seed, 3);
    let mut deal = |values: &[usize]| {
        let mut deck = Deck::new(values);
        (0..SCALE_VARIANTS)
            .map(|_| deck.draw(&mut rng))
            .collect::<Vec<_>>()
    };
    let mut sources: Vec<Vec<String>> = vec![Vec::new(); SCALE_VARIANTS];
    for p in [64, 256, 1024] {
        let iters = if p == 1024 {
            vec![SCALE_ITERS_P1024; SCALE_VARIANTS]
        } else {
            deal(&SCALE_ITERS)
        };
        for (v, batch) in sources.iter_mut().enumerate() {
            batch.push(format!("stencil:{},{p},{}", 4 * p, iters[v]));
        }
    }
    for p in [256, 1024] {
        let (reduce, bcast) = (deal(&SCALE_KIB), deal(&SCALE_KIB));
        for (v, batch) in sources.iter_mut().enumerate() {
            batch.push(format!("allreduce:{p}:{}:1000", reduce[v] * 1024));
            batch.push(format!("bcast:{p}:{}", bcast[v] * 1024));
        }
    }
    sources
        .into_iter()
        .map(|batch| {
            batch
                .iter()
                .flat_map(|s| [body(s, "meiko", false), body(s, "meiko", true)])
                .collect()
        })
        .collect()
}

/// Submission order of operation `op`: a seeded permutation of `0..n`.
pub fn submission_order(seed: u64, op: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 1000 + op).shuffle(&mut order);
    order
}
