//! The node loop's single wait: each node thread polls its own inbox bell,
//! listener and accepted connections, with no reader or accept threads.
//!
//! The tests in this file share one process-wide thread census, so they
//! run one at a time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use tokq::core::Cluster;
use tokq::protocol::arbiter::ArbiterConfig;
use tokq::protocol::types::TimeDelta;

/// Serializes the tests here: the census counts every thread of the
/// process, so no other cluster may be alive while it reads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live threads of this process whose name starts with `tokq-`, counted by
/// name with trailing digits dropped (`tokq-node-3` counts as
/// `tokq-node-`). The kernel keeps the first 15 bytes of a name, so
/// `tokq-tcp-write-12` reads as `tokq-tcp-write-`.
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

/// Locks once through every node of an `n`-node TCP cluster, then checks
/// that it runs one node thread and one writer per node and nothing else.
#[cfg(target_os = "linux")]
fn census_after_locking_through_every_node(n: usize) {
    let cluster = Cluster::builder(n).tcp().build();
    for node in 0..n {
        let guard = cluster
            .handle(node)
            .expect("in range")
            .try_lock_for(Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{n}-node cluster: lock through node {node}: {e}"));
        drop(guard);
    }
    let expected = BTreeMap::from([
        ("tokq-node-".to_owned(), n),
        ("tokq-tcp-write-".to_owned(), n),
    ]);
    assert_eq!(tokq_threads(), expected, "{n}-node TCP cluster");
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    assert_eq!(metrics.cs_completed_total(), n as u64);
    assert!(tokq_threads().is_empty(), "shutdown joins every thread");
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_clusters_run_one_thread_per_node_plus_writers() {
    let _serial = serial();
    census_after_locking_through_every_node(5);
    census_after_locking_through_every_node(32);
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
