//! The two loopback-TCP workloads: a closed loop of two clients on a
//! 5-node cluster, either fighting over one resource (`tcp_contended`) or
//! each cycling over four resources of its own (`tcp_uncontended`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use tokq_core::{Cluster, ClusterMetrics, ResourceHandle, ResourceId};
use tokq_obs::{Obs, Source};
use tokq_protocol::arbiter::ArbiterConfig;
use tokq_protocol::types::TimeDelta;

use crate::hostspeed;
use crate::procfs::{self, ThreadCpu};
use crate::report::{median, Hist, Report};
use crate::wire::{self, KINDS};

const NODES: usize = 5;
/// The nodes the two clients lock through.
const CLIENT_NODES: [usize; 2] = [1, 3];
/// Resources per client on the uncontended workload, each on its own shard.
const UNCONTENDED_RESOURCES: usize = 4;
/// Bound on every lock call of the clients; a grant slower than this is a
/// failed operation.
const LOCK_TIMEOUT: Duration = Duration::from_secs(2);
/// Bound on each lock call of a cold start. A cold start locks through one
/// node at a time, so nothing else runs: when the request misses the
/// arbiter (the NEW-ARBITER broadcast of the last hand-off has not reached
/// the node yet over its fresh connection), only the protocol's
/// `request_retry` timer sends it again, after `request_retry` × n plus a
/// stagger, 10.4–10.8 s with 5 nodes. Such a cold start completes and
/// is counted in the context line; the median of `setup_s` leaves it out.
const COLD_LOCK_TIMEOUT: Duration = Duration::from_secs(15);
/// Failed calls per client whose error the context line shows.
const MAX_LOGGED_ERRORS: usize = 8;
/// Grants slower than this are counted in the context line.
const SLOW_GRANT: Duration = Duration::from_secs(1);
/// Cold clusters built at every slice edge while the clients pause;
/// `setup_s` is the median of these and the measured cluster's own cold
/// start, each scaled to the nominal host speed.
const SETUPS_PER_EDGE: usize = 2;
/// How long a client waiting to pause lets the other client's lock call
/// run before it locks once more itself (see [`Gate`]).
const RESCUE_AFTER: Duration = Duration::from_millis(5);
/// Closed-loop warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// `tcp_uncontended` fails if more CS than this share send a REQUEST.
const MAX_UNCONTENDED_REQUESTS_PER_CS: f64 = 0.01;

/// Which of the two TCP workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Contended,
    Uncontended,
}

impl Shape {
    fn shards(self) -> u16 {
        match self {
            Shape::Contended => 1,
            Shape::Uncontended => 2 * UNCONTENDED_RESOURCES as u16,
        }
    }
}

/// SplitMix64: the seeded source of resource names.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The resource names each client locks, drawn from `seed`. Contended:
/// one name shared by both clients. Uncontended: four names per client on
/// four distinct shards that the other client never touches.
fn resource_names(shape: Shape, seed: u64) -> [Vec<String>; 2] {
    let mut rng = SplitMix64(seed);
    let mut draw = || format!("perf/{:016x}", rng.next());
    match shape {
        Shape::Contended => {
            let name = draw();
            [vec![name.clone()], vec![name]]
        }
        Shape::Uncontended => {
            let shards = shape.shards();
            let mut taken = vec![false; usize::from(shards)];
            let mut order = Vec::new();
            while order.len() < taken.len() {
                let name = draw();
                let shard = ResourceId::new(name.as_str()).shard(shards).index();
                if !taken[shard] {
                    taken[shard] = true;
                    order.push(name);
                }
            }
            let second = order.split_off(UNCONTENDED_RESOURCES);
            [order, second]
        }
    }
}

fn build(shape: Shape) -> Cluster {
    let config = ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::ZERO)
        .with_t_forward(TimeDelta::from_micros(200));
    Cluster::builder(NODES)
        .tcp()
        .shards(shape.shards())
        .config(config)
        .obs(Obs::disabled(Source::Runtime))
        .build()
}

/// Builds a cold cluster and locks once through every node; returns the
/// cluster and the seconds from `build()` to the last grant.
fn cold_start(shape: Shape, resource: &str) -> Result<(Cluster, f64), String> {
    let t = Instant::now();
    let cluster = build(shape);
    for node in 0..NODES {
        let handle = cluster
            .resource_on(node, resource)
            .map_err(|e| format!("resource_on({node}): {e}"))?;
        let guard = handle
            .try_lock_for(COLD_LOCK_TIMEOUT)
            .map_err(|e| format!("cold-start lock through node {node}: {e}"))?;
        drop(guard);
    }
    Ok((cluster, t.elapsed().as_secs_f64()))
}

/// Acquire times: 1 µs buckets up to 20 ms; slower grants read as 20 ms.
fn acquire_hist() -> Hist {
    Hist::new(1_000, 20_000)
}

/// Guard-drop times: 10 ns buckets up to 100 µs.
fn release_hist() -> Hist {
    Hist::new(10, 10_000)
}

/// What one client saw in one slice of the measured window.
#[derive(Debug, Clone)]
struct Slice {
    attempted: u64,
    failed: u64,
    acquire: Hist,
    release: Hist,
}

impl Slice {
    fn new() -> Self {
        Slice {
            attempted: 0,
            failed: 0,
            acquire: acquire_hist(),
            release: release_hist(),
        }
    }

    fn merge(&mut self, other: &Slice) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acquire.merge(&other.acquire);
        self.release.merge(&other.release);
    }
}

/// What the gate lets a client do next.
enum Turn {
    /// Lock once and record it in this slice (`None`: do not record).
    Lock(Option<usize>),
    Stop,
}

#[derive(Debug, Default)]
struct GateState {
    /// The slice being measured; `None` in the warm-up, at slice edges and
    /// after the window.
    slice: Option<usize>,
    pausing: bool,
    stop: bool,
    /// Clients inside a lock call, and clients parked.
    in_flight: usize,
    parked: usize,
    /// Unrecorded lock calls made while waiting to park.
    rescues: u64,
}

/// Where the run is, shared by the clients and the thread that drives the
/// window. At every slice edge the clients park between lock calls while
/// that thread reads counters and the host's speed and builds cold
/// clusters, so none of that lands inside a slice.
///
/// A client parks only once no lock call is in flight. A request that
/// reaches a node past its forwarding phase is rescued by the next
/// NEW-ARBITER broadcast, which the other client's traffic brings within
/// milliseconds; were that client already parked, the cluster would fall
/// silent and only the protocol's `request_retry` timer would send the
/// request again, after `request_retry` × n, 10 s and more. So a client
/// waiting to park locks once more, unrecorded, whenever the other
/// client's call is still in flight after [`RESCUE_AFTER`].
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
    clients: usize,
    /// Traced runs time the guard drop in every odd slice; the even ones
    /// run untraced, so both halves see the same mix of host speeds.
    trace: bool,
}

impl Gate {
    fn new(clients: usize, trace: bool) -> Self {
        Gate {
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
            clients,
            trace,
        }
    }

    fn is_traced(&self, slice: usize) -> bool {
        self.trace && slice % 2 == 1
    }

    /// A client's next turn; parks it while the window pauses. Every
    /// [`Turn::Lock`] must be followed by [`Gate::leave`].
    fn enter(&self) -> Turn {
        let mut s = self.state.lock().expect("gate lock");
        while s.pausing {
            if s.in_flight == 0 {
                s.parked += 1;
                self.changed.notify_all();
                s = self
                    .changed
                    .wait_while(s, |s| s.pausing)
                    .expect("gate lock");
                s.parked -= 1;
            } else {
                let (g, wait) = self
                    .changed
                    .wait_timeout_while(s, RESCUE_AFTER, |s| s.pausing && s.in_flight > 0)
                    .expect("gate lock");
                s = g;
                if wait.timed_out() {
                    // Lock once more so the other call is not left alone
                    // in a silent cluster; `slice` is `None` while pausing.
                    s.rescues += 1;
                    break;
                }
            }
        }
        if s.stop {
            return Turn::Stop;
        }
        s.in_flight += 1;
        Turn::Lock(s.slice)
    }

    /// Ends the lock call [`Gate::enter`] allowed.
    fn leave(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.in_flight -= 1;
        if s.pausing {
            self.changed.notify_all();
        }
    }

    /// Stops recording and waits until every client is parked with no lock
    /// call in flight.
    fn pause(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.slice = None;
        s.pausing = true;
        let _parked = self
            .changed
            .wait_while(s, |s| s.parked < self.clients)
            .expect("gate lock");
    }

    /// Lets the clients go on, recording into `slice`.
    fn resume(&self, slice: Option<usize>) {
        let mut s = self.state.lock().expect("gate lock");
        s.slice = slice;
        s.pausing = false;
        self.changed.notify_all();
    }

    /// Lets the parked clients leave.
    fn stop(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.stop = true;
        s.pausing = false;
        self.changed.notify_all();
    }
}

/// One client's totals over the whole run and per measured slice.
struct ClientLog {
    acquired: u64,
    failed: u64,
    /// Grants slower than [`SLOW_GRANT`], and the slowest grant.
    slow: u64,
    max_acquire_ns: u64,
    /// Each failed call's error and how long it took, in ms; the first
    /// few only.
    errors: Vec<(String, f64)>,
    slices: Vec<Slice>,
}

/// A closed loop: lock, check the resource's in-CS flag, release, repeat.
fn client(
    gate: &Gate,
    slices: usize,
    overlap: &AtomicBool,
    handles: &[(ResourceHandle, usize)],
    flags: &[AtomicBool],
) -> ClientLog {
    let mut log = ClientLog {
        acquired: 0,
        failed: 0,
        slow: 0,
        max_acquire_ns: 0,
        errors: Vec::new(),
        slices: vec![Slice::new(); slices],
    };
    let mut next = 0;
    while let Turn::Lock(slice) = gate.enter() {
        let (handle, flag) = &handles[next];
        next = (next + 1) % handles.len();
        let traced = slice.is_some_and(|i| gate.is_traced(i));
        let t = Instant::now();
        let outcome = match handle.try_lock_for(LOCK_TIMEOUT) {
            Ok(guard) => {
                let acquire_ns = t.elapsed().as_nanos() as u64;
                if flags[*flag].swap(true, Ordering::SeqCst) {
                    overlap.store(true, Ordering::SeqCst);
                }
                flags[*flag].store(false, Ordering::SeqCst);
                let release_ns = if traced {
                    let r = Instant::now();
                    drop(guard);
                    Some(r.elapsed().as_nanos() as u64)
                } else {
                    drop(guard);
                    None
                };
                Some((acquire_ns, release_ns))
            }
            Err(e) => {
                if log.errors.len() < MAX_LOGGED_ERRORS {
                    log.errors
                        .push((e.to_string(), t.elapsed().as_secs_f64() * 1e3));
                }
                None
            }
        };
        gate.leave();
        match outcome {
            Some((acquire_ns, _)) => {
                log.acquired += 1;
                log.slow += u64::from(acquire_ns > SLOW_GRANT.as_nanos() as u64);
                log.max_acquire_ns = log.max_acquire_ns.max(acquire_ns);
            }
            None => log.failed += 1,
        }
        let Some(i) = slice else {
            continue;
        };
        let rec = &mut log.slices[i];
        rec.attempted += 1;
        match outcome {
            Some((acquire_ns, release_ns)) => {
                rec.acquire.record(acquire_ns);
                if let Some(ns) = release_ns {
                    rec.release.record(ns);
                }
            }
            None => rec.failed += 1,
        }
    }
    log
}

/// Counters read from the cluster and `/proc` at a slice edge.
#[derive(Debug, Clone)]
struct Counters {
    cs: u64,
    msgs: u64,
    by_kind: BTreeMap<String, u64>,
    rerequests: u64,
    cpu_ms: f64,
    /// CPU per live thread; read on traced runs only.
    threads: BTreeMap<u32, ThreadCpu>,
}

impl Counters {
    fn read(metrics: &ClusterMetrics, threads: bool) -> Self {
        Counters {
            cs: metrics.cs_completed_total(),
            msgs: metrics.messages_total(),
            by_kind: metrics.by_kind(),
            rerequests: metrics.cs_rerequests_total(),
            cpu_ms: procfs::process_cpu_ms(),
            threads: if threads {
                procfs::threads()
            } else {
                BTreeMap::new()
            },
        }
    }
}

/// Thread-name prefixes whose CPU the traced run reports.
const THREAD_GROUPS: [&str; 4] = [
    "tokq-node-",
    "tokq-tcp-read",
    "tokq-tcp-write",
    "tokq-tcp-accept",
];

/// Sums over a set of slices, both clients merged.
#[derive(Debug)]
struct Window {
    /// Grants per slice.
    acquired: Vec<u64>,
    /// Acquire-time percentiles of each slice that had a grant, scaled to
    /// the nominal host speed.
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    release: Hist,
    /// Wall seconds each slice lasted.
    slice_s: Vec<f64>,
    /// Seconds and process CPU milliseconds, scaled to the nominal host
    /// speed.
    scaled_s: f64,
    scaled_cpu_ms: f64,
    /// Critical sections the cluster completed.
    cs: u64,
    msgs: u64,
    by_kind: BTreeMap<String, u64>,
    rerequests: u64,
    /// CPU per [`THREAD_GROUPS`] entry, and its live threads at the end.
    thread_cpu_ms: [f64; THREAD_GROUPS.len()],
    thread_count: [usize; THREAD_GROUPS.len()],
}

impl Window {
    fn per_cs(&self, kind: &str) -> f64 {
        self.by_kind.get(kind).copied().unwrap_or(0) as f64 / self.cs as f64
    }

    fn grants(&self) -> u64 {
        self.acquired.iter().sum()
    }

    fn cs_per_s(&self) -> f64 {
        self.grants() as f64 / self.slice_s.iter().sum::<f64>()
    }

    fn scaled_cs_per_s(&self) -> f64 {
        self.grants() as f64 / self.scaled_s
    }

    fn scaled_cpu_ms_per_kcs(&self) -> f64 {
        self.scaled_cpu_ms / (self.grants() as f64 / 1000.0)
    }
}

/// Everything the measured window recorded.
struct Measured {
    /// Both clients' slices, merged.
    slices: Vec<Slice>,
    /// Counters at the start and at the end of every slice.
    edges: Vec<(Counters, Counters)>,
    /// Wall seconds each slice lasted.
    slice_s: Vec<f64>,
    /// The host's [`hostspeed::slowdown`] at every slice edge: slice `i`
    /// lies between readings `i` and `i + 1`.
    slowdowns: Vec<f64>,
    gate: Gate,
    overlap: bool,
    /// Grants and failed calls over the whole run, warm-up included.
    acquired_total: u64,
    failed_total: u64,
    /// Grants slower than [`SLOW_GRANT`] and the slowest grant, whole run.
    slow_total: u64,
    max_acquire_ms: f64,
    errors: Vec<(String, f64)>,
}

impl Measured {
    /// The slices a traced run does not trace (every slice otherwise).
    fn untraced(&self) -> Window {
        self.window(false)
    }

    fn traced(&self) -> Window {
        self.window(true)
    }

    fn window(&self, traced: bool) -> Window {
        let mut w = Window {
            acquired: Vec::new(),
            p50_ms: Vec::new(),
            p99_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            release: release_hist(),
            slice_s: Vec::new(),
            scaled_s: 0.0,
            scaled_cpu_ms: 0.0,
            cs: 0,
            msgs: 0,
            by_kind: BTreeMap::new(),
            rerequests: 0,
            thread_cpu_ms: [0.0; THREAD_GROUPS.len()],
            thread_count: [0; THREAD_GROUPS.len()],
        };
        for (i, slice) in self.slices.iter().enumerate() {
            if self.gate.is_traced(i) != traced {
                continue;
            }
            let (a, b) = &self.edges[i];
            let slowdown = (self.slowdowns[i] + self.slowdowns[i + 1]) / 2.0;
            let acquired = slice.attempted - slice.failed;
            w.acquired.push(acquired);
            w.slice_s.push(self.slice_s[i]);
            w.scaled_s += self.slice_s[i] / slowdown;
            w.scaled_cpu_ms += (b.cpu_ms - a.cpu_ms) / slowdown;
            if acquired > 0 {
                w.p50_ms
                    .push(slice.acquire.quantile_ns(0.50) / 1e6 / slowdown);
                w.p99_ms
                    .push(slice.acquire.quantile_ns(0.99) / 1e6 / slowdown);
            }
            w.attempted += slice.attempted;
            w.failed += slice.failed;
            w.release.merge(&slice.release);
            w.cs += b.cs - a.cs;
            w.msgs += b.msgs - a.msgs;
            for (kind, &n) in &b.by_kind {
                let before = a.by_kind.get(kind).copied().unwrap_or(0);
                *w.by_kind.entry(kind.clone()).or_default() += n - before;
            }
            w.rerequests += b.rerequests - a.rerequests;
            for (g, prefix) in THREAD_GROUPS.iter().enumerate() {
                let (cpu, live) = procfs::thread_group_delta(&a.threads, &b.threads, prefix);
                w.thread_cpu_ms[g] += cpu;
                w.thread_count[g] = live;
            }
        }
        w
    }
}

/// Builds a cold cluster, locks once through every node and shuts it down;
/// returns the seconds from `build()` to the last grant.
fn cold_setup(shape: Shape, resource: &str) -> Result<f64, String> {
    let (cluster, secs) = cold_start(shape, resource)?;
    cluster.shutdown();
    Ok(secs)
}

/// Runs the two closed-loop clients through a warm-up and `seconds` of
/// 1-second slices. At every slice edge, while the clients pause, it
/// reads the counters and the host's speed and builds
/// [`SETUPS_PER_EDGE`] cold clusters into `setups`, each with its edge.
/// With `trace`, every odd slice is traced.
fn measure(
    cluster: &Cluster,
    shape: Shape,
    names: &[Vec<String>; 2],
    seconds: f64,
    trace: bool,
    setups: &mut Vec<(f64, usize)>,
) -> Result<Measured, String> {
    let handles: Vec<Vec<(ResourceHandle, usize)>> = names
        .iter()
        .enumerate()
        .map(|(c, list)| {
            list.iter()
                .enumerate()
                .map(|(i, name)| {
                    let handle = cluster
                        .resource_on(CLIENT_NODES[c], name.as_str())
                        .expect("client nodes are in range");
                    // Both contended clients share flag 0; uncontended
                    // resources each get their own.
                    let flag = if shape == Shape::Contended {
                        0
                    } else {
                        c * list.len() + i
                    };
                    (handle, flag)
                })
                .collect()
        })
        .collect();
    let flags: Vec<AtomicBool> = (0..2 * UNCONTENDED_RESOURCES)
        .map(|_| AtomicBool::new(false))
        .collect();
    let overlap = AtomicBool::new(false);
    let metrics = cluster.metrics();

    let slices = (seconds.round() as usize).max(1);
    let slice_len = Duration::from_secs_f64(seconds / slices as f64);
    let gate = Gate::new(handles.len(), trace);
    let mut edges = Vec::with_capacity(slices);
    let mut slice_s = Vec::with_capacity(slices);
    let mut slowdowns = Vec::with_capacity(slices + 1);
    let (logs, outcome) = std::thread::scope(|s| {
        let workers: Vec<_> = handles
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let (gate, overlap, flags) = (&gate, &overlap, &flags);
                std::thread::Builder::new()
                    .name(format!("perfbench-client-{i}"))
                    .spawn_scoped(s, move || client(gate, slices, overlap, h, flags))
                    .expect("spawn client thread")
            })
            .collect();
        let mut window = || -> Result<(), String> {
            std::thread::sleep(WARMUP);
            gate.pause();
            for i in 0..=slices {
                // Speed readings before, between and after the cold starts.
                let mut readings = vec![hostspeed::slowdown()];
                for _ in 0..SETUPS_PER_EDGE {
                    setups.push((cold_setup(shape, &names[0][0])?, i));
                    readings.push(hostspeed::slowdown());
                }
                slowdowns.push(readings.iter().sum::<f64>() / readings.len() as f64);
                if i == slices {
                    return Ok(());
                }
                let start = Counters::read(metrics, trace);
                gate.resume(Some(i));
                let t = Instant::now();
                std::thread::sleep(slice_len);
                // The slice ends once its last lock call has returned.
                gate.pause();
                slice_s.push(t.elapsed().as_secs_f64());
                edges.push((start, Counters::read(metrics, trace)));
            }
            Ok(())
        };
        let outcome = window();
        gate.stop();
        let logs = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>();
        (logs, outcome)
    });
    outcome?;
    let mut merged = logs[0].slices.clone();
    for log in &logs[1..] {
        for (a, b) in merged.iter_mut().zip(&log.slices) {
            a.merge(b);
        }
    }
    Ok(Measured {
        slices: merged,
        edges,
        slice_s,
        slowdowns,
        gate,
        overlap: overlap.load(Ordering::SeqCst),
        acquired_total: logs.iter().map(|l| l.acquired).sum(),
        failed_total: logs.iter().map(|l| l.failed).sum(),
        slow_total: logs.iter().map(|l| l.slow).sum(),
        max_acquire_ms: logs.iter().map(|l| l.max_acquire_ns).max().unwrap_or(0) as f64 / 1e6,
        errors: logs.iter().flat_map(|l| l.errors.clone()).collect(),
    })
}

/// Fails the run if the window does not have its workload's shape.
fn check_shape(shape: Shape, w: &Window, report: &mut Report) -> Result<(), String> {
    if w.cs == 0 {
        return Err("no critical section completed in the measured window".into());
    }
    let privileges = w.per_cs("PRIVILEGE");
    let requests = w.per_cs("REQUEST");
    report.info("privileges_per_cs", privileges);
    report.info("requests_per_cs", requests);
    match shape {
        Shape::Contended if privileges < 1.0 => {
            Err(format!("tcp_contended shows {privileges} PRIVILEGE per CS, below 1"))
        }
        Shape::Uncontended if requests > MAX_UNCONTENDED_REQUESTS_PER_CS => Err(format!(
            "tcp_uncontended sends {requests} REQUEST per CS, above {MAX_UNCONTENDED_REQUESTS_PER_CS}"
        )),
        _ => Ok(()),
    }
}

/// Every timing is scaled to the nominal host speed.
fn report_end_to_end(report: &mut Report, w: &Window, m: &Measured, metrics: &ClusterMetrics) {
    report.attempted = w.attempted;
    report.failed = w.failed;
    report.metric("cs_per_s", "1/s", w.scaled_cs_per_s());
    report.metric("acquire_p50_ms", "ms", median(&w.p50_ms));
    report.metric("acquire_p99_ms", "ms", median(&w.p99_ms));
    report.metric("msgs_per_cs", "msgs", w.msgs as f64 / w.cs as f64);
    report.metric("cpu_ms_per_kcs", "ms/kcs", w.scaled_cpu_ms_per_kcs());
    report.metric("peak_rss_mb", "MiB", procfs::peak_rss_mb());
    report.info("cs_per_s.unscaled", w.cs_per_s());
    report.info("slowdowns", compact(&m.slowdowns));
    report.info("slice_p99_ms", compact(&w.p99_ms));
    report.info("acquire_ms.samples", w.grants());
    let per_slice = w.acquired.iter().min().copied().unwrap_or(0);
    report.info("acquire_ms.samples_per_slice_min", per_slice);
    let slice_rates: Vec<f64> = w
        .acquired
        .iter()
        .zip(&w.slice_s)
        .map(|(&n, s)| n as f64 / s)
        .collect();
    report.info("slice_cs_per_s", compact(&slice_rates));
    report.info("msgs_by_kind", compact(&w.by_kind));
    report.info("notes", compact(&metrics.notes()));
}

fn report_layers(
    report: &mut Report,
    m: &Measured,
    metrics: &ClusterMetrics,
) -> Result<(), String> {
    let (untraced, traced) = (m.untraced(), m.traced());
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    let untraced_rate = untraced.scaled_cs_per_s();
    let traced_rate = traced.scaled_cs_per_s();
    report.metric("trace.cs_per_s", "1/s", traced_rate);
    report.metric("trace.untraced_cs_per_s", "1/s", untraced_rate);
    report.metric(
        "trace.overhead_pct",
        "%",
        (1.0 - traced_rate / untraced_rate) * 100.0,
    );

    let kcs = traced.cs as f64 / 1000.0;
    let [node_cpu, read_cpu, write_cpu, accept_cpu] = traced.thread_cpu_ms;
    let [_, readers, writers, acceptors] = traced.thread_count;
    report.metric("node.cpu_ms_per_kcs", "ms/kcs", node_cpu / kcs);
    report.metric("node.rerequests", "count", traced.rerequests as f64);
    report.metric(
        "tcp.read_cpu_ms_per_kcs",
        "ms/kcs",
        (read_cpu + accept_cpu) / kcs,
    );
    report.metric("tcp.write_cpu_ms_per_kcs", "ms/kcs", write_cpu / kcs);
    report.metric(
        "tcp.threads",
        "count",
        (readers + writers + acceptors) as f64,
    );
    let registry = metrics.obs().registry().snapshot();
    let connects = registry.counters.get("tcp_connects").copied().unwrap_or(0);
    report.metric("tcp.connects", "count", connects as f64);
    report.metric(
        "tcp.frames_per_flush_p50",
        "count",
        metrics.frames_per_flush().p50 as f64,
    );
    report.metric(
        "tcp.send_enqueue_ns_p50",
        "ns",
        metrics.send_enqueue_ns().p50 as f64,
    );
    report.metric(
        "tcp.frames_abandoned",
        "count",
        metrics.frames_abandoned() as f64,
    );

    for kind in KINDS {
        report.metric(
            format!("protocol.msgs_per_cs.{kind}"),
            "msgs",
            traced.per_cs(kind),
        );
    }
    wire::measure(report, NODES, 1, &traced.by_kind, traced.cs)?;

    report.metric(
        "cluster.release_us_p50",
        "us",
        traced.release.quantile_ns(0.50) / 1e3,
    );
    report.metric("cluster.lock_errors", "count", traced.failed as f64);
    report.info("cluster.release_us_p50.samples", traced.release.total());
    // Layers this workload does not run.
    report.metric("protocol.step_ns_p50", "ns", 0.0);
    report.metric("protocol.step_share", "ratio", 0.0);
    report.metric("simnet.self_share", "ratio", 0.0);
    report.metric("recovery.regenerated", "count", 0.0);
    report.metric("recovery.warnings_per_drop", "msgs", 0.0);
    report.metric("recovery.msgs_per_drop", "msgs", 0.0);
    report.metric("recovery.max_delay_vs", "vs", 0.0);
    Ok(())
}

/// Runs one TCP workload and fills `report`. With `trace`, odd slices
/// are traced and even ones run untraced, and the per-layer metrics come
/// from the traced slices.
pub fn run(
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let names = resource_names(shape, seed);
    report.info("resources", compact(&names));
    let (cluster, secs) = cold_start(shape, &names[0][0])?;
    // Set-up seconds, each with the slice edge whose speed reading scales
    // it; the measured cluster's own cold start goes with the first edge.
    let mut setups = vec![(secs, 0)];
    let m = measure(&cluster, shape, &names, seconds, trace, &mut setups)?;
    report.info("slices", m.slices.len());
    report.info(
        "gate.rescues",
        m.gate.state.lock().expect("gate lock").rescues,
    );
    report.info("acquire_ms.max", m.max_acquire_ms);
    report.info("acquire_ms.over_1s", m.slow_total);
    report.info("lock_errors", format!("{:?}", m.errors));

    if m.overlap {
        return Err("two clients were inside one resource's critical section".into());
    }
    check_shape(shape, &m.untraced(), report)?;
    if trace {
        report_layers(report, &m, cluster.metrics())?;
    } else {
        report_end_to_end(report, &m.untraced(), &m, cluster.metrics());
        let scaled: Vec<f64> = setups
            .iter()
            .map(|&(secs, edge)| secs / m.slowdowns[edge])
            .collect();
        report.metric("setup_s", "s", median(&scaled));
        let slow = setups.iter().filter(|&&(secs, _)| secs > 1.0).count();
        report.info("setup.over_1s", slow);
    }
    report.info("setup_samples", setups.len());

    // Every grant the clients saw must be a critical section the cluster
    // counted; a grant that arrives after its timeout is released by the
    // runtime and counted too.
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    // The cold start granted once through every node.
    let counted = metrics.cs_completed_total() - NODES as u64;
    if counted < m.acquired_total || counted > m.acquired_total + m.failed_total {
        return Err(format!(
            "cluster counted {counted} critical sections for {} client grants",
            m.acquired_total
        ));
    }
    Ok(())
}

/// `Debug` output without spaces, for one `I` line.
fn compact(v: &impl std::fmt::Debug) -> String {
    format!("{v:?}").replace(' ', "")
}
