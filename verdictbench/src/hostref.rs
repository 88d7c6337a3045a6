//! A host-speed reference that runs none of the repository's code, so
//! its figures move only with the machine: a pointer chase through a
//! 32 MiB random cycle (memory latency, the cost behind BCP's cache
//! misses) and a register-only integer loop (core speed). `run.py`
//! records both before and after every timed loop; a shift between two
//! sets of results that these figures share came from the host, not
//! from the change under test.

use std::hint::black_box;
use std::time::Instant;

use satverify::obs::json::Json;

use crate::gen::Rng;

/// Entries of the chased cycle (4 bytes each).
const CYCLE: usize = 8 << 20;
/// Steps timed per sample, of the chase and of the integer loop.
const CHASE_STEPS: u64 = 1 << 19;
const SPIN_STEPS: u64 = 1 << 24;
const SAMPLES: usize = 5;

pub fn run() -> Json {
    let next = cycle(CYCLE);
    let mut at = 0u32;
    let chase = median_ns_per_step(CHASE_STEPS, || {
        for _ in 0..CHASE_STEPS {
            at = next[at as usize];
        }
        black_box(at);
    });
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let spin = median_ns_per_step(SPIN_STEPS, || {
        for _ in 0..SPIN_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    });
    let mut out = Json::object();
    out.push("chase_ns", chase);
    out.push("spin_ns", spin);
    out
}

/// One cycle through all `n` slots in a fixed random order (Sattolo).
fn cycle(n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::new(1);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i));
    }
    let mut next = vec![0u32; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    next
}

fn median_ns_per_step(steps: u64, mut sample: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            sample();
            started.elapsed().as_nanos() as f64 / steps as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[SAMPLES / 2]
}
