//! A silent lock cycle allocates nothing on the calling thread, and a
//! contended one allocates only for what the protocol itself builds.
//!
//! Past its warm-up, a node whose shards nobody else wants grants every
//! lock call inside the call, and most grants are silent self-grants that
//! send no message. Such a cycle (lock, then drop the guard) must not touch
//! the heap: a counting global allocator keeps a per-thread count of
//! allocations, and the cycles that sent no message must average fewer
//! than 0.01 of them.
//!
//! A contended critical section is a token hand-off between nodes: its
//! frames are encoded into reused buffers, held on their links and parsed
//! in place from the reader's buffer, so what still allocates is the
//! protocol's own state (the decoded token and Q-lists, the Q-lists a
//! seal builds). The allocator also keeps a process-wide count, which is
//! pinned per contended critical section.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use tokq::core::{Cluster, ResourceHandle};
use tokq::obs::{Obs, Source};
use tokq::protocol::arbiter::ArbiterConfig;
use tokq::protocol::types::TimeDelta;

/// Forwards every call to [`System`], counting allocations per thread
/// and in the whole process.
struct Counting;

/// Allocations made by every thread so far.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed` and `realloc`) made by this
    /// thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
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
/// Allocations per contended critical section, counted over every thread.
/// The code this bound pins measures 7.9 to 8.9 (the mix of messages per
/// critical section varies with scheduling); copying every frame out of
/// the read buffer and again into the decoder, and encoding every message
/// into a fresh buffer, cost 30.5.
const CONTENDED_ALLOCS_PER_CS: f64 = 10.0;

/// The lock-service configuration the TCP benchmark runs.
fn lock_service() -> ArbiterConfig {
    ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::ZERO)
        .with_t_forward(TimeDelta::from_micros(200))
}

/// The tests here count allocations: run them one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SLOT: Mutex<()> = Mutex::new(());
    SLOT.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
    let _serial = serial();
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

/// Two clients on nodes 1 and 3 of a 5-node, one-shard TCP cluster contend
/// for one resource, the benchmark's `tcp_contended` shape. Counted over
/// every thread of the process, a contended critical section makes at
/// most [`CONTENDED_ALLOCS_PER_CS`] allocations.
#[test]
fn contended_critical_sections_allocate_only_protocol_state() {
    const CONTENDED_CYCLES: usize = 20_000;
    let _serial = serial();
    let cluster = Cluster::builder(NODES)
        .tcp()
        .config(lock_service())
        .obs(Obs::disabled(Source::Runtime))
        .build();
    // Every node learns the arbiter, and every link connects.
    for node in 0..NODES {
        cycle(&cluster.resource_on(node, "shared").expect("node in range"));
    }
    let metrics = cluster.metrics_handle();
    // The clients warm up together, then the window opens and closes at
    // the two later meetings.
    let meet = Arc::new(Barrier::new(3));
    let clients = [1, 3].map(|node| {
        let handle = cluster.resource_on(node, "shared").expect("node in range");
        let meet = Arc::clone(&meet);
        thread::spawn(move || {
            for _ in 0..2_000 {
                cycle(&handle);
            }
            meet.wait();
            for _ in 0..CONTENDED_CYCLES {
                cycle(&handle);
            }
            meet.wait();
        })
    });
    meet.wait();
    let (cs, allocs) = (
        metrics.cs_completed_total(),
        PROCESS_ALLOCS.load(Ordering::Relaxed),
    );
    let privileges = metrics.by_kind().get("PRIVILEGE").copied().unwrap_or(0);
    meet.wait();
    let allocs = PROCESS_ALLOCS.load(Ordering::Relaxed) - allocs;
    let cs = metrics.cs_completed_total() - cs;
    let privileges = metrics.by_kind().get("PRIVILEGE").copied().unwrap_or(0) - privileges;
    for client in clients {
        client.join().expect("client panicked");
    }
    cluster.shutdown();
    assert!(
        privileges >= cs / 2,
        "{privileges} PRIVILEGE for {cs} CS: the clients did not contend"
    );
    let per_cs = allocs as f64 / cs as f64;
    assert!(
        per_cs <= CONTENDED_ALLOCS_PER_CS,
        "{allocs} allocations over {cs} contended CS ({per_cs:.2} per CS, {privileges} PRIVILEGE)"
    );
}
