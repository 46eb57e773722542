//! The host's speed at a moment, read from a fixed CPU-bound loop.
//!
//! The benchmark runs on a shared VM whose speed changes in regimes that
//! last seconds: the same simulation runs at 200 000 CS/s in one stretch
//! and at 380 000 in the next, and its CPU per CS moves with it, so the
//! neighbours slow the CPU itself rather than take it away. A fixed loop
//! timed between the parts of a run slows by about the same share (see the
//! README's Steadiness section), so each part's timings are scaled to the
//! speed at which the loop takes [`NOMINAL_NS`]. The loop is the
//! benchmark's own code: a change to the program moves the scaled figures
//! in full.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Loop time at the speed every timing is scaled to.
pub const NOMINAL_NS: f64 = 3e6;
/// Iterations of one timed loop, a few milliseconds.
const ITERATIONS: u64 = 60_000;
/// Timed loops per reading. The host's speed flips within milliseconds as
/// well as over seconds, so a reading averages several loops.
const LOOPS: usize = 3;

/// One pass of the loop: a seeded xorshift feeding a small heap, a hash
/// map and a short-lived allocation, the mix of work the simulator and
/// the lock service do per message.
fn pass() -> u64 {
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        if heap.len() > 64 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        *map.entry(x % 512).or_default() += i;
        let v = black_box(vec![acc; 3]);
        acc = acc.wrapping_add(v[1]);
    }
    acc.wrapping_add(map.len() as u64)
}

/// How slow the host is now: the loop's time over [`NOMINAL_NS`], so 1.5
/// means timings run half as long again as at the nominal speed. Divide a
/// duration by it, or multiply a rate, to scale it to the nominal speed.
pub fn slowdown() -> f64 {
    let total_ns: f64 = (0..LOOPS)
        .map(|_| {
            let t = Instant::now();
            black_box(pass());
            t.elapsed().as_nanos() as f64
        })
        .sum();
    total_ns / LOOPS as f64 / NOMINAL_NS
}
