//! Lock callers drive their own node: `lock()` and the guard's drop step
//! the protocol on the calling thread. These tests pin what that path
//! must keep: an uncontended cycle wakes no thread and sends only the
//! announces, a grant that arrives after its caller gave up is released,
//! waiters survive a crash while pre-crash guards release nothing,
//! shutdown fails every call cleanly, contending clients still alternate
//! the token, and a contended grant wakes its waiter once.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use tokq::core::{Cluster, LockError, NetOptions, ResourceHandle};
use tokq::obs::{Obs, Source};
use tokq::protocol::arbiter::{ArbiterConfig, RecoveryConfig, SELF_GRANT_ANNOUNCE_EVERY};
use tokq::protocol::types::TimeDelta;

/// The lock-service configuration the TCP benchmark runs.
fn lock_service() -> ArbiterConfig {
    ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::ZERO)
        .with_t_forward(TimeDelta::from_micros(200))
}

/// The lock service with recovery timeouts short enough for a test.
fn quick_recovery() -> ArbiterConfig {
    ArbiterConfig {
        recovery: Some(RecoveryConfig {
            token_wait_base: TimeDelta::from_millis(100),
            token_wait_per_position: TimeDelta::from_millis(25),
            enquiry_timeout: TimeDelta::from_millis(50),
            handover_watch: TimeDelta::from_millis(200),
            probe_timeout: TimeDelta::from_millis(50),
        }),
        ..lock_service()
    }
}

/// The tests here measure wakeups, shares and counts: run them one at a
/// time.
fn serial() -> MutexGuard<'static, ()> {
    static SLOT: Mutex<()> = Mutex::new(());
    SLOT.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn lock(handle: &ResourceHandle) {
    drop(
        handle
            .try_lock_for(Duration::from_secs(5))
            .expect("granted"),
    );
}

/// Past its warm-up, a node whose shard nobody else wants grants every
/// lock call inside the call: no thread is woken and only the periodic
/// announces leave the node.
#[test]
fn uncontended_cycles_ring_no_bell_and_send_only_the_announces() {
    const CYCLES: u64 = 100_000;
    let _serial = serial();
    let cluster = Cluster::builder(3)
        .tcp()
        .config(lock_service())
        .obs(Obs::disabled(Source::Runtime))
        .build();
    let handle = cluster.resource_on(1, "solo").expect("node in range");
    // Warm up: the token moves to node 1 and the shard stays quiet long
    // enough for its grants to run inline.
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_millis(300) {
        lock(&handle);
    }
    let metrics = cluster.metrics_handle();
    let (rings, msgs, announces) = (
        metrics.bell_rings(),
        metrics.messages_total(),
        metrics.by_kind().get("NEW-ARBITER").copied().unwrap_or(0),
    );
    for _ in 0..CYCLES {
        lock(&handle);
    }
    let rang = metrics.bell_rings() - rings;
    let sent = metrics.messages_total() - msgs;
    let announced = metrics.by_kind().get("NEW-ARBITER").copied().unwrap_or(0) - announces;
    cluster.shutdown();
    assert_eq!(
        rang, 0,
        "{CYCLES} uncontended cycles rang a bell {rang} times"
    );
    assert_eq!(sent, announced, "only announces leave the node");
    let seals = CYCLES.div_ceil(u64::from(SELF_GRANT_ANNOUNCE_EVERY));
    assert!(
        announced <= 2 * (seals + 1),
        "{announced} NEW-ARBITER for {CYCLES} grants"
    );
}

/// A `try_lock_for` that times out leaves no trace: the grant it caused
/// arrives later, is released at once, and the next caller (the same
/// thread, through the other node) is granted.
#[test]
fn abandoned_grant_is_released_and_the_next_caller_granted() {
    let _serial = serial();
    let cluster = Cluster::builder(2).config(lock_service()).build();
    let metrics = cluster.metrics_handle();
    let h0 = cluster.resource_on(0, "r").expect("node in range");
    let h1 = cluster.resource_on(1, "r").expect("node in range");
    let held = h0.lock().expect("granted");
    assert_eq!(
        h1.try_lock_for(Duration::from_millis(50)).err(),
        Some(LockError::Timeout)
    );
    drop(held);
    // Node 1 is granted for nobody and releases on its own.
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.cs_completed_total() < 2 {
        assert!(Instant::now() < deadline, "the abandoned grant was kept");
        thread::sleep(Duration::from_millis(1));
    }
    let next = h0
        .try_lock_for(Duration::from_secs(5))
        .expect("the token came back");
    drop(next);
    cluster.shutdown();
    assert_eq!(metrics.cs_completed_total(), 3);
}

/// A lock call queued on a node that crashes stays queued and is granted
/// after recovery; a guard granted before the crash is stale and its
/// drop completes nothing.
#[test]
fn crash_keeps_waiters_and_voids_earlier_guards() {
    let _serial = serial();
    let cluster = Cluster::builder(2)
        .shards(2)
        .config(quick_recovery())
        .build();
    let metrics = cluster.metrics_handle();
    let stale = cluster.resource_on(0, "a").expect("node in range");
    let mut name = 0;
    let wanted = loop {
        let h = cluster
            .resource_on(0, format!("b{name}"))
            .expect("node in range");
        if h.shard() != stale.shard() {
            break h;
        }
        name += 1;
    };
    let stale_guard = stale.lock().expect("granted");
    // Node 1 holds the other shard, so node 0's call on it waits.
    let holder = cluster
        .resource_on(1, wanted.resource().clone())
        .expect("node in range")
        .lock()
        .expect("granted");
    let waiter = thread::spawn(move || wanted.try_lock_for(Duration::from_secs(30)));
    thread::sleep(Duration::from_millis(100));
    cluster.crash(0).expect("crash node 0");
    thread::sleep(Duration::from_millis(50));
    cluster.recover(0).expect("recover node 0");
    thread::sleep(Duration::from_millis(100));
    drop(holder);
    let granted = waiter.join().expect("waiter thread");
    assert!(granted.is_ok(), "the queued call was dropped: {granted:?}");
    drop(granted);
    drop(stale_guard);
    cluster.shutdown();
    assert_eq!(
        metrics.notes().get("stale_release_ignored").copied(),
        Some(1)
    );
    assert_eq!(metrics.cs_completed_on(stale.shard()), 0);
    assert!(metrics.cs_rerequests_total() >= 1);
}

/// After shutdown every lock call fails with `ShuttingDown`, a call that
/// was waiting is failed too, and dropping a guard is harmless.
#[test]
fn shutdown_fails_lock_calls_and_tolerates_guard_drops() {
    let _serial = serial();
    let cluster = Cluster::builder(2).tcp().config(lock_service()).build();
    let h0 = cluster.resource_on(0, "r").expect("node in range");
    let h1 = cluster.resource_on(1, "r").expect("node in range");
    let guard = h0.lock().expect("granted");
    let waiting = h1.clone();
    let waiter = thread::spawn(move || waiting.lock());
    thread::sleep(Duration::from_millis(50));
    cluster.shutdown();
    assert_eq!(
        waiter.join().expect("waiter thread").err(),
        Some(LockError::ShuttingDown)
    );
    drop(guard);
    assert_eq!(h0.lock().err(), Some(LockError::ShuttingDown));
    assert_eq!(h0.try_lock().err(), Some(LockError::ShuttingDown));
    assert_eq!(
        h1.try_lock_for(Duration::from_millis(10)).err(),
        Some(LockError::ShuttingDown)
    );
}

/// Two closed-loop clients on nodes 1 and 3 of a 5-node channel cluster
/// share one resource for a second: neither may take more than two
/// thirds of the grants, and the token moves for every critical section.
fn contending_clients_alternate(net: NetOptions, config: ArbiterConfig) {
    let _serial = serial();
    let cluster = Cluster::builder(5)
        .net(net)
        .config(config)
        .obs(Obs::disabled(Source::Runtime))
        .build();
    let deadline = Instant::now() + Duration::from_secs(1);
    let clients = [1, 3].map(|node| {
        let handle = cluster.resource_on(node, "shared").expect("node in range");
        thread::spawn(move || -> Result<u64, LockError> {
            let mut grants = 0;
            while Instant::now() < deadline {
                drop(handle.try_lock_for(Duration::from_secs(5))?);
                grants += 1;
            }
            Ok(grants)
        })
    });
    let grants = clients.map(|c| c.join().expect("client panicked").expect("lock failed"));
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    let total: u64 = grants.iter().sum();
    for &g in &grants {
        assert!(
            3 * g >= total,
            "{net:?}: unfair split of {total} grants: {grants:?}"
        );
    }
    let privileges = metrics.by_kind().get("PRIVILEGE").copied().unwrap_or(0);
    let cs = metrics.cs_completed_total();
    assert!(
        privileges >= cs,
        "{net:?}: {privileges} PRIVILEGE for {cs} CS; notes {:?}",
        metrics.notes()
    );
}

#[test]
fn contending_clients_alternate_with_instant_delivery() {
    contending_clients_alternate(NetOptions::instant(), lock_service());
}

#[test]
fn contending_clients_alternate_with_delayed_delivery() {
    // The forwarding phase must outlast a message's flight (the paper's
    // T_fwd covers the message delay): with T_fwd no longer than the
    // delay, a REQUEST sent to the previous arbiter can land after its
    // forwarding phase and be dropped, and during a silent streak only
    // the next announce makes its sender retransmit.
    contending_clients_alternate(
        NetOptions::delayed(Duration::from_micros(200), Duration::ZERO),
        lock_service().with_t_forward(TimeDelta::from_millis(2)),
    );
}

/// Voluntary context switches of the calling thread so far: each time it
/// blocked, on a condition variable, a mutex or a poller.
#[cfg(target_os = "linux")]
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("voluntary_ctxt_switches in /proc/thread-self/status")
}

/// Two clients on nodes 1 and 3 of a 5-node TCP cluster contend for one
/// resource under the benchmark's configuration, so nearly every grant a
/// client gets is a token hand-off it sleeps for. The thread that steps
/// the grant must wake the sleeper once, after every lock the sleeper
/// would block on is dropped: woken under the grant slot's lock (or the
/// node's core), the sleeper preempts its waker on a busy CPU, blocks on
/// that lock and needs a second wakeup. So each client may block about
/// once per grant, and at most 1.2 times on average.
#[cfg(target_os = "linux")]
#[test]
fn a_contended_grant_wakes_its_waiter_once() {
    const WARM_UP: u64 = 2_000;
    const CYCLES: u64 = 20_000;
    let _serial = serial();
    let cluster = Cluster::builder(5)
        .tcp()
        .config(lock_service())
        .obs(Obs::disabled(Source::Runtime))
        .build();
    // Every node learns the arbiter before the clients start.
    for node in 0..5 {
        lock(&cluster.resource_on(node, "shared").expect("node in range"));
    }
    let start = Arc::new(Barrier::new(2));
    let clients = [1, 3].map(|node| {
        let handle = cluster.resource_on(node, "shared").expect("node in range");
        let start = Arc::clone(&start);
        thread::spawn(move || {
            start.wait();
            for _ in 0..WARM_UP {
                lock(&handle);
            }
            let before = voluntary_switches();
            for _ in 0..CYCLES {
                lock(&handle);
            }
            voluntary_switches() - before
        })
    });
    let switches = clients.map(|c| c.join().expect("client panicked"));
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    let privileges = metrics.by_kind().get("PRIVILEGE").copied().unwrap_or(0);
    assert!(
        privileges >= CYCLES,
        "{privileges} PRIVILEGE: the clients did not contend"
    );
    for (node, blocked) in [1, 3].into_iter().zip(switches) {
        let per_grant = blocked as f64 / CYCLES as f64;
        assert!(
            per_grant <= 1.2,
            "node {node}'s client blocked {blocked} times over {CYCLES} grants \
             ({per_grant:.2} per grant)"
        );
    }
}
