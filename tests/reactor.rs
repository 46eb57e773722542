//! The reactors: a cluster runs one thread per CPU (at most one per
//! node), each waiting on every node it drives at once — each node's
//! inbox bell, listener, accepted connections and outbound connections —
//! with no reader, accept, writer or pump threads.
//!
//! The tests in this file share one process-wide thread and socket
//! census, so they run one at a time.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tokq::core::{Cluster, ClusterBuilder, LockError};
use tokq::protocol::arbiter::ArbiterConfig;
use tokq::protocol::types::TimeDelta;

/// Serializes the tests here: the census counts every thread of the
/// process, so no other cluster may be alive while it reads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live threads of this process whose name starts with `tokq-`, counted by
/// name with trailing digits dropped (`tokq-node-r3` counts as
/// `tokq-node-r`).
#[cfg(target_os = "linux")]
fn tokq_threads() -> BTreeMap<String, usize> {
    let mut census = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let comm = task.expect("task entry").path().join("comm");
        // A thread can exit between the listing and the read.
        let Ok(name) = std::fs::read_to_string(comm) else {
            continue;
        };
        let name = name.trim_end();
        if name.starts_with("tokq-") {
            let group = name.trim_end_matches(|c: char| c.is_ascii_digit());
            *census.entry(group.to_owned()).or_insert(0) += 1;
        }
    }
    census
}

/// Socket inodes among this process's open descriptors.
#[cfg(target_os = "linux")]
fn socket_inodes() -> BTreeSet<u64> {
    let mut inodes = BTreeSet::new();
    for fd in std::fs::read_dir("/proc/self/fd").expect("procfs") {
        // A descriptor can close between the listing and the read.
        let Ok(target) = std::fs::read_link(fd.expect("fd entry").path()) else {
            continue;
        };
        let target = target.to_string_lossy();
        if let Some(inode) = target
            .strip_prefix("socket:[")
            .and_then(|rest| rest.strip_suffix(']'))
        {
            inodes.insert(inode.parse().expect("socket inode"));
        }
    }
    inodes
}

/// The local port and state (hex, as the kernel prints them) of every
/// TCP socket among this process's open descriptors. Other sockets, such
/// as descriptors the process inherited, are left out.
#[cfg(target_os = "linux")]
fn tcp_sockets() -> Vec<(String, String)> {
    let ours = socket_inodes();
    let mut sockets = Vec::new();
    for table in ["/proc/self/net/tcp", "/proc/self/net/tcp6"] {
        let Ok(text) = std::fs::read_to_string(table) else {
            continue;
        };
        for line in text.lines().skip(1) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let inode: u64 = fields[9].parse().expect("inode column");
            if ours.contains(&inode) {
                let port = fields[1].rsplit(':').next().expect("local port");
                sockets.push((port.to_owned(), fields[3].to_owned()));
            }
        }
    }
    sockets
}

/// This process's TCP connections that it opened itself: sockets that
/// are not listening and whose local port is not a listener's port.
#[cfg(target_os = "linux")]
fn outbound_connections() -> usize {
    const LISTEN: &str = "0A";
    let sockets = tcp_sockets();
    let listening: BTreeSet<&str> = sockets
        .iter()
        .filter(|(_, state)| state == LISTEN)
        .map(|(port, _)| port.as_str())
        .collect();
    sockets
        .iter()
        .filter(|(port, state)| state != LISTEN && !listening.contains(port.as_str()))
        .count()
}

/// Reactor threads a cluster of `n` nodes runs: one per CPU this process
/// may run on, at most one per node.
fn reactors(n: usize) -> usize {
    let cpus = thread::available_parallelism().map_or(1, |p| p.get());
    n.min(cpus)
}

/// Locks once through every node of a cluster of `n`, then checks that
/// it runs one reactor thread per CPU and nothing else, and that shutdown
/// joins them all.
#[cfg(target_os = "linux")]
fn census_after_locking_through_every_node(builder: ClusterBuilder, n: usize, what: &str) {
    let cluster = builder.build();
    for node in 0..n {
        let guard = cluster
            .handle(node)
            .expect("in range")
            .try_lock_for(Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{what}: lock through node {node}: {e}"));
        drop(guard);
    }
    let expected = BTreeMap::from([("tokq-node-r".to_owned(), reactors(n))]);
    assert_eq!(tokq_threads(), expected, "{what}");
    let outbound = outbound_connections();
    assert!(
        outbound <= n * (n - 1),
        "{what}: {outbound} outbound connections, more than one per node pair and direction"
    );
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    assert_eq!(metrics.cs_completed_total(), n as u64);
    assert!(tokq_threads().is_empty(), "shutdown joins every thread");
    assert_eq!(tcp_sockets(), [], "{what}: shutdown closes every socket");
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_clusters_run_one_thread_per_cpu() {
    let _serial = serial();
    for n in [5, 32] {
        let what = format!("{n}-node TCP cluster");
        census_after_locking_through_every_node(Cluster::builder(n).tcp(), n, &what);
    }
}

#[cfg(target_os = "linux")]
#[test]
fn channel_clusters_run_one_thread_per_cpu() {
    let _serial = serial();
    census_after_locking_through_every_node(Cluster::builder(5), 5, "5-node channel cluster");
}

/// Two nodes that share a reactor do not share their faults: while node 0
/// crashes and recovers, a client locking through its reactor-mate sees
/// no error, node 0's call queued before the crash is granted after the
/// recovery, and shutting down with node 0 crashed again stays prompt.
#[test]
fn reactor_mates_keep_serving_while_one_crashes_and_recovers() {
    const N: usize = 5;
    let _serial = serial();
    let p = reactors(N);
    // Node p is on node 0's reactor. With a reactor per node no two share
    // one; node 1 then stands in, and the crash isolation still holds.
    let mate = if p < N { p } else { 1 };
    let config = ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::ZERO)
        .with_t_forward(TimeDelta::from_micros(200));
    let cluster = Cluster::builder(N).shards(2).config(config).tcp().build();
    // Warm up: every node locks once, so each knows the arbiter.
    for node in 0..N {
        drop(
            cluster
                .handle(node)
                .expect("in range")
                .try_lock_for(Duration::from_secs(20))
                .expect("warm-up lock"),
        );
    }
    let busy = cluster.resource_on(mate, "busy").expect("in range");
    let mut name = 0;
    let held = loop {
        let h = cluster
            .resource_on(mate, format!("held{name}"))
            .expect("in range");
        if h.shard() != busy.shard() {
            break h;
        }
        name += 1;
    };
    // The mate holds the other shard, so node 0's call on it waits.
    let holder = held.lock().expect("granted");
    let waiting = cluster
        .resource_on(0, held.resource().clone())
        .expect("in range");
    let waiter = thread::spawn(move || waiting.try_lock_for(Duration::from_secs(30)));
    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || -> (u64, Vec<LockError>) {
            let (mut grants, mut errors) = (0, Vec::new());
            while !stop.load(Ordering::Relaxed) {
                match busy.try_lock_for(Duration::from_secs(5)) {
                    Ok(guard) => {
                        drop(guard);
                        grants += 1;
                    }
                    Err(e) => errors.push(e),
                }
            }
            (grants, errors)
        })
    };
    thread::sleep(Duration::from_millis(100));
    cluster.crash(0).expect("crash node 0");
    thread::sleep(Duration::from_millis(100));
    cluster.recover(0).expect("recover node 0");
    thread::sleep(Duration::from_millis(100));
    drop(holder);
    let granted = waiter.join().expect("waiter thread");
    assert!(granted.is_ok(), "node 0's queued call: {granted:?}");
    drop(granted);
    thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let (grants, errors) = client.join().expect("client thread");
    assert!(errors.is_empty(), "node {mate}'s client saw {errors:?}");
    assert!(grants > 0, "node {mate}'s client was never granted");
    cluster.crash(0).expect("crash node 0 again");
    let started = Instant::now();
    cluster.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown with a dead peer took {:?}",
        started.elapsed()
    );
}

/// A lost wakeup strands a lock call in the inbox of a parked node until
/// some unrelated event wakes it. On a one-node cluster with no collection
/// window nothing else does (every grant is a silent self-grant, its
/// sockets stay idle and no timer is due within seconds), so a single
/// lost wakeup fails its two-second call.
#[test]
fn no_lock_call_is_lost_while_the_node_parks() {
    let _serial = serial();
    let config = ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::ZERO)
        .with_t_forward(TimeDelta::from_micros(200));
    let cluster = Cluster::builder(1).config(config).tcp().build();
    let handle = cluster.handle(0).expect("in range");
    for cycle in 0..100_000u32 {
        let guard = handle
            .try_lock_for(Duration::from_secs(2))
            .unwrap_or_else(|e| panic!("lock call {cycle} failed: {e}"));
        drop(guard);
    }
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    assert_eq!(metrics.cs_completed_total(), 100_000);
}
