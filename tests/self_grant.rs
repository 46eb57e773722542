//! The steady-state self-grant (DESIGN §3.1): an arbiter whose sealed
//! Q-list is only itself re-enters its critical section with no message,
//! announcing with one NEW-ARBITER every `SELF_GRANT_ANNOUNCE_EVERY`
//! grants. These tests pin what that fast path must not cost: contention
//! still alternates the token, a REQUEST lost during a silent streak is
//! still recovered by the announce, an uncontended lock sends only the
//! announces, and the collection span still ends at the grant.

use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use tokq::core::{Cluster, LockError};
use tokq::obs::{Obs, Source};
use tokq::protocol::arbiter::{ArbiterConfig, SELF_GRANT_ANNOUNCE_EVERY};
use tokq::protocol::types::{NodeId, TimeDelta};
use tokq::simnet::arrivals::{ArrivalProcess, DynWorkload, Scripted};
use tokq::simnet::{
    ClosedLoop, DelayModel, Fault, FaultPlan, SimConfig, SimTime, Simulation, TraceKind,
};

/// The lock-service configuration the TCP benchmark runs.
fn lock_service() -> ArbiterConfig {
    ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::ZERO)
        .with_t_forward(TimeDelta::from_micros(200))
}

fn tcp_cluster() -> Cluster {
    Cluster::builder(5)
        .tcp()
        .config(lock_service())
        .obs(Obs::disabled(Source::Runtime))
        .build()
}

/// The TCP tests measure scheduling-sensitive shares and counts: run
/// them one at a time, never beside the CPU-bound simulation.
fn serial() -> MutexGuard<'static, ()> {
    static SLOT: Mutex<()> = Mutex::new(());
    SLOT.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const HOT: NodeId = NodeId(1);
const LIGHT: NodeId = NodeId(2);

/// One hot closed-loop node and one light requester whose REQUESTs at
/// 2.5 s, 6.5 s and 10.5 s fall into windows that drop every message.
/// Each is sent while the hot arbiter self-grants silently, so only the
/// announce NEW-ARBITER can tell the light node it was missed.
#[test]
fn request_lost_during_a_silent_streak_is_recovered_by_the_announce() {
    let _serial = serial();
    let ms = TimeDelta::from_millis;
    let mut cfg = SimConfig::paper_defaults(5).with_trace();
    cfg.delay = DelayModel::Constant(ms(1));
    cfg.t_exec = ms(1);
    cfg.warmup_cs = 0;
    cfg.trace_cap = 1_000_000;
    cfg.max_sim_time = Some(SimTime::from_secs_f64(13.0));
    let protocol = ArbiterConfig::fault_tolerant()
        .with_t_collect(ms(1))
        .with_t_forward(ms(1));
    let retry_floor = protocol.request_retry.expect("retry fallback on") * 5;
    let workload = DynWorkload::new(move |node, _| -> Box<dyn ArrivalProcess> {
        match NodeId::from_index(node) {
            HOT => Box::new(ClosedLoop::saturating()),
            LIGHT => Box::new(Scripted::open_loop(
                [500, 2_000, 2_000, 2_000, 2_000, 2_000].map(ms),
            )),
            _ => Box::new(Scripted::silent()),
        }
    });
    let lossy = [2.5, 6.5, 10.5].map(SimTime::from_secs_f64);
    let plan = lossy.iter().fold(FaultPlan::none(), |plan, &from| {
        plan.with(Fault::LossWindow {
            from,
            until: from + ms(1),
            prob: 1.0,
        })
    });
    // The simulator checks mutual exclusion online and panics on a breach.
    let (report, trace) = Simulation::build(cfg, protocol, workload)
        .with_faults(plan)
        .run_until_cs_with_trace(u64::MAX);
    assert!(
        report.note_count("self_grant") > 1_000,
        "{:?}",
        report.notes
    );

    let events = trace.events();
    for &from in &lossy {
        let sent = events.iter().position(|e| {
            e.node == LIGHT
                && e.at >= from
                && matches!(&e.kind, TraceKind::Sent { kind, .. } if kind == "REQUEST")
        });
        let sent = sent.expect("the light node requested in the lossy window");
        assert!(
            events[sent].at < from + ms(1),
            "REQUEST sent after the window"
        );
        let hot_before = events[..sent].iter().rev().find(|e| {
            e.node == HOT
                && matches!(&e.kind, TraceKind::Note(n) if n == "self_grant" || n == "qlist_sealed")
        });
        assert!(
            matches!(hot_before.map(|e| &e.kind), Some(TraceKind::Note(n)) if n == "self_grant"),
            "the hot arbiter was not in a silent streak: {hot_before:?}"
        );
    }

    // Every light request was granted, each well before the coarse
    // request_retry fallback (base × n) could have fired.
    let mut asked = None;
    let mut waits = Vec::new();
    for e in events.iter().filter(|e| e.node == LIGHT) {
        match e.kind {
            TraceKind::Arrival => asked = Some(e.at),
            TraceKind::EnterCs => waits.push(e.at.since(asked.take().expect("arrival first"))),
            _ => {}
        }
    }
    assert_eq!(waits.len(), 6, "a light request went unserved");
    let slowest = waits.iter().max().copied().expect("six waits");
    assert!(
        slowest < retry_floor / 4,
        "slowest light grant took {slowest:?}; the retry fallback starts at {retry_floor:?}"
    );
    assert!(report.note_count("request_retransmitted") >= 3);
}

/// Two closed-loop clients on one resource over TCP: the self-grant
/// streak must not let either monopolise the token.
#[test]
fn contending_tcp_clients_still_alternate_the_token() {
    let _serial = serial();
    let cluster = tcp_cluster();
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
        assert!(3 * g >= total, "unfair split of {total} grants: {grants:?}");
    }
    let privileges = metrics.by_kind().get("PRIVILEGE").copied().unwrap_or(0);
    let cs = metrics.cs_completed_total();
    assert!(
        privileges >= cs,
        "{privileges} PRIVILEGE for {cs} CS: the token stopped moving; notes {:?}",
        metrics.notes()
    );
}

/// One client cycling one resource: past its first grant the arbiter is
/// the client's own node, and only the announces cost messages.
#[test]
fn uncontended_tcp_lock_sends_only_the_announces() {
    const CYCLES: u64 = 2_000;
    let _serial = serial();
    let cluster = tcp_cluster();
    let handle = cluster.resource_on(1, "solo").expect("node in range");
    let lock = || {
        handle
            .try_lock_for(Duration::from_secs(5))
            .expect("granted")
    };
    drop(lock());
    let metrics = cluster.metrics_handle();
    let before = metrics.messages_total();
    for _ in 0..CYCLES {
        drop(lock());
    }
    let added = metrics.messages_total() - before;
    cluster.shutdown();
    let announces = CYCLES.div_ceil(u64::from(SELF_GRANT_ANNOUNCE_EVERY));
    assert!(
        added <= 4 * announces + 10,
        "{CYCLES} uncontended grants sent {added} messages"
    );
}

/// A silent grant closes the `request_collection` span like a seal does,
/// so the span's histogram times collection windows, not the critical
/// sections between them.
#[test]
fn silent_grants_close_the_collection_span() {
    const HOLD: Duration = Duration::from_millis(5);
    let _serial = serial();
    let cluster = Cluster::builder(3).config(lock_service()).build();
    let handle = cluster.resource_on(1, "solo").expect("node in range");
    for _ in 0..40 {
        let guard = handle
            .try_lock_for(Duration::from_secs(5))
            .expect("granted");
        thread::sleep(HOLD);
        drop(guard);
    }
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    let notes = metrics.notes();
    assert!(
        notes.get("self_grant").copied().unwrap_or(0) > 30,
        "{notes:?}"
    );
    let snapshot = metrics.obs().registry().snapshot();
    let spans = &snapshot.histograms["span_ns/request_collection"];
    assert!(
        u128::from(spans.p50) < HOLD.as_nanos(),
        "collection spans ran across critical sections: {spans:?}"
    );
}
