//! A silent lock cycle allocates nothing on the calling thread.
//!
//! Past its warm-up, a node whose shards nobody else wants grants every
//! lock call inside the call, and most grants are silent self-grants that
//! send no message. Such a cycle (lock, then drop the guard) must not touch
//! the heap: a counting global allocator keeps a per-thread count of
//! allocations, and the cycles that sent no message must average fewer
//! than 0.01 of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use tokq::core::{Cluster, ResourceHandle};
use tokq::obs::{Obs, Source};
use tokq::protocol::arbiter::ArbiterConfig;
use tokq::protocol::types::TimeDelta;

/// Forwards every call to [`System`], counting allocations per thread.
struct Counting;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed` and `realloc`) made by this
    /// thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no count left; its allocations are not
    // the ones measured.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns its result. The
// count lives in a const-initialised thread-local `Cell` with no
// destructor, so counting neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 5;
const SHARDS: u16 = 8;
/// Resources the client cycles over, each on a shard of its own.
const RESOURCES: usize = 4;
const CYCLES: usize = 100_000;

/// The lock-service configuration the TCP benchmark runs.
fn lock_service() -> ArbiterConfig {
    ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::ZERO)
        .with_t_forward(TimeDelta::from_micros(200))
}

/// One lock cycle: the grant, then the guard's release.
fn cycle(handle: &ResourceHandle) {
    drop(
        handle
            .try_lock_for(Duration::from_secs(5))
            .expect("granted"),
    );
}

#[test]
fn silent_lock_cycles_allocate_nothing_on_the_calling_thread() {
    let cluster = Cluster::builder(NODES)
        .tcp()
        .shards(SHARDS)
        .config(lock_service())
        .obs(Obs::disabled(Source::Runtime))
        .build();
    let mut shards = BTreeSet::new();
    let handles: Vec<ResourceHandle> = (0..)
        .map(|i| {
            cluster
                .resource_on(1, format!("alloc/{i}"))
                .expect("node in range")
        })
        .filter(|h| shards.insert(h.shard()))
        .take(RESOURCES)
        .collect();
    // Warm up: the tokens move to node 1, and the shards go quiet long
    // enough for lock calls to grant inline.
    let warm = Instant::now();
    let mut i = 0;
    while i < 4096 || warm.elapsed() < Duration::from_millis(200) {
        cycle(&handles[i % RESOURCES]);
        i += 1;
    }
    let metrics = cluster.metrics_handle();
    let (mut silent, mut silent_allocs, mut max_allocs) = (0u64, 0u64, 0u64);
    for i in 0..CYCLES {
        let sent = metrics.messages_total();
        let before = allocs();
        cycle(&handles[i % RESOURCES]);
        let made = allocs() - before;
        if metrics.messages_total() == sent {
            silent += 1;
            silent_allocs += made;
            max_allocs = max_allocs.max(made);
        }
    }
    cluster.shutdown();
    assert!(
        silent >= CYCLES as u64 * 9 / 10,
        "only {silent} of {CYCLES} cycles sent no message"
    );
    let per_cycle = silent_allocs as f64 / silent as f64;
    assert!(
        per_cycle < 0.01,
        "{silent_allocs} allocations over {silent} silent cycles \
         ({per_cycle:.3} per cycle, at most {max_allocs} in one)"
    );
}
