//! The discrete-event simulation driver.
//!
//! [`Simulation`] owns `n` protocol state machines, a virtual clock, an
//! event heap, a network model, a workload, and an optional fault plan. It
//! enforces the mutual-exclusion safety property *online*: any overlapping
//! critical sections abort the run immediately.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};
use tokq_obs::{Histogram, Level, Obs, Source};
use tokq_protocol::api::{Protocol, ProtocolFactory, ProtocolMessage};
use tokq_protocol::event::{Action, Input};
use tokq_protocol::types::{NodeId, TimeDelta};

use crate::arrivals::{ArrivalProcess, Pacing, WorkloadSpec};
use crate::fault::{FaultPlan, LossWindows, TokenDrops};
use crate::metrics::{Collector, Report};
use crate::network::{DelayModel, Unreliability};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent, TraceKind};

/// Static parameters of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of nodes.
    pub n: usize,
    /// Network delay model (`T_msg`).
    pub delay: DelayModel,
    /// Critical-section execution time (`T_exec`).
    pub t_exec: TimeDelta,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Base network unreliability.
    pub unreliability: Unreliability,
    /// Critical sections discarded before measurement starts.
    pub warmup_cs: u64,
    /// Hard stop on virtual time, if any.
    pub max_sim_time: Option<SimTime>,
    /// Record an execution trace.
    pub trace: bool,
    /// Maximum trace events retained.
    pub trace_cap: usize,
}

impl SimConfig {
    /// The paper's §3.3 parameters: `T_msg = T_exec = 0.1` units on a
    /// reliable network.
    pub fn paper_defaults(n: usize) -> Self {
        SimConfig {
            n,
            delay: DelayModel::paper(),
            t_exec: TimeDelta::from_millis(100),
            seed: 0xB1EF_CAFE,
            unreliability: Unreliability::reliable(),
            warmup_cs: 500,
            max_sim_time: None,
            trace: false,
            trace_cap: 100_000,
        }
    }

    /// Replaces the seed, returning `self` for chaining.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables trace recording, returning `self` for chaining.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

#[derive(Debug)]
enum EventKind<M, T> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, timer: T, gen: u64 },
    Arrival { node: NodeId },
    CsExit { node: NodeId, gen: u64 },
    Crash { node: NodeId },
    Recover { node: NodeId },
}

/// A compact heap key: the heap orders and moves only these, while the
/// event payloads stay put in the [`EventQueue`] slab at `slot`.
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, with the
        // insertion sequence as a deterministic tie-break.
        Reverse((self.at, self.seq)).cmp(&Reverse((other.at, other.seq)))
    }
}

/// One slab slot: a pending event, or a link in the free list.
enum Slot<E> {
    Full(E),
    Free(u32),
}

/// End of the slab's free list.
const NIL: u32 = u32::MAX;

/// Pending events, earliest first, ties broken by insertion order.
///
/// The binary heap sifts 24-byte [`Key`]s; each payload is written once
/// into a slab slot on push and moved out once on pop. Freed slots are
/// threaded into a free list through the slab itself, so the slab grows
/// only to the peak number of pending events.
struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    slab: Vec<Slot<E>>,
    free: u32,
    seq: u64,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: NIL,
            seq: 0,
        }
    }

    fn push(&mut self, at: SimTime, event: E) {
        self.seq += 1;
        let slot = if self.free == NIL {
            self.slab.push(Slot::Full(event));
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
        } else {
            let slot = self.free;
            match std::mem::replace(&mut self.slab[slot as usize], Slot::Full(event)) {
                Slot::Free(next) => self.free = next,
                Slot::Full(_) => unreachable!("free list points at a pending event"),
            }
            slot
        };
        self.heap.push(Key {
            at,
            seq: self.seq,
            slot,
        });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        let freed = Slot::Free(self.free);
        self.free = key.slot;
        match std::mem::replace(&mut self.slab[key.slot as usize], freed) {
            Slot::Full(event) => Some((key.at, event)),
            Slot::Free(_) => unreachable!("heap key points at a free slot"),
        }
    }
}

/// A small Fx-style hasher (as in rustc) for the timer-generation map:
/// its keys are a node index and a timer enum, for which a multiply and
/// a rotate per word hash well enough at a fraction of SipHash's cost.
/// Iteration order of that map is never observed, so the hash cannot
/// affect a run.
#[derive(Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct NodeDriver {
    alive: bool,
    in_cs: bool,
    cs_gen: u64,
    /// (arrived_at, requested_at) of the request inside the protocol.
    outstanding: Option<(SimTime, SimTime)>,
    /// Arrival timestamps waiting to be issued to the protocol.
    app_queue: VecDeque<SimTime>,
    process: Box<dyn ArrivalProcess>,
}

/// A deterministic discrete-event simulation of one protocol instance set.
///
/// # Examples
///
/// ```
/// use tokq_protocol::arbiter::ArbiterConfig;
/// use tokq_simnet::arrivals::Poisson;
/// use tokq_simnet::sim::{SimConfig, Simulation};
///
/// let report = Simulation::build(
///     SimConfig::paper_defaults(5),
///     ArbiterConfig::basic(),
///     Poisson::new(1.0),
/// )
/// .run_until_cs(200);
/// assert!(report.cs_measured >= 200);
/// ```
pub struct Simulation<P: Protocol> {
    cfg: SimConfig,
    nodes: Vec<P>,
    drivers: Vec<NodeDriver>,
    events: EventQueue<EventKind<P::Msg, P::Timer>>,
    now: SimTime,
    rng: SimRng,
    timer_gen: HashMap<(u32, P::Timer), u64, BuildHasherDefault<FxHasher>>,
    collector: Collector,
    trace: Trace,
    obs: Obs,
    /// The `span_ns/cs_grant` histogram of `obs`, fetched on the first
    /// grant so a run pays the registry lookup once.
    cs_grant: Option<Histogram>,
    faults: FaultPlan,
    /// The plan's deterministic token drops, as a cursor over time.
    token_drops: TokenDrops,
    /// The plan's loss windows.
    loss_windows: LossWindows,
    /// Which node is currently inside its critical section, if any.
    cs_holder: Option<NodeId>,
}

impl<P: Protocol> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.cfg.n)
            .field("now", &self.now)
            .field("cs_total", &self.collector.cs_total())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> Simulation<P> {
    /// Builds a simulation over `factory`-built nodes fed by `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n == 0`.
    pub fn build<F, W>(cfg: SimConfig, factory: F, workload: W) -> Self
    where
        F: ProtocolFactory<Node = P>,
        W: WorkloadSpec,
    {
        assert!(cfg.n > 0, "simulation needs at least one node");
        let mut rng = SimRng::new(cfg.seed);
        let nodes = factory.build_all(cfg.n);
        let drivers: Vec<NodeDriver> = (0..cfg.n)
            .map(|i| NodeDriver {
                alive: true,
                in_cs: false,
                cs_gen: 0,
                outstanding: None,
                app_queue: VecDeque::new(),
                process: Box::new(workload.build(i, cfg.n)),
            })
            .collect();
        let collector = Collector::new(cfg.n, cfg.warmup_cs);
        let trace = Trace::new(cfg.trace, cfg.trace_cap);
        let mut sim = Simulation {
            nodes,
            drivers,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            timer_gen: HashMap::default(),
            collector,
            trace,
            obs: Obs::disabled(Source::Sim),
            cs_grant: None,
            faults: FaultPlan::none(),
            token_drops: TokenDrops::default(),
            loss_windows: LossWindows::default(),
            cs_holder: None,
            rng: rng.fork(),
            cfg,
        };
        let _ = rng;
        // Boot every node, then seed the first arrival of every stream.
        for i in 0..sim.cfg.n {
            sim.dispatch(NodeId::from_index(i), Input::Start);
        }
        for i in 0..sim.cfg.n {
            sim.schedule_next_arrival(NodeId::from_index(i));
        }
        sim
    }

    /// Routes every trace record through an observability handle in the
    /// shared [`tokq_obs`] event schema (stamped with virtual time in the
    /// [`Source::Sim`] clock domain), and records request-to-grant
    /// latencies into its `span_ns/cs_grant` histogram — the same metric
    /// names the threaded runtime uses, so sim and runtime output can be
    /// compared directly.
    ///
    /// Independent of [`SimConfig::trace`]: the in-memory [`Trace`] and
    /// the obs stream can be enabled separately.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self.cs_grant = None;
        self
    }

    /// The observability handle events are routed to.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Installs a fault plan (crashes, loss windows, token drops).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let (token_drops, loss_windows) = plan.index(|at, node, is_crash| {
            let kind = if is_crash {
                EventKind::Crash { node }
            } else {
                EventKind::Recover { node }
            };
            self.events.push(at, kind);
        });
        self.token_drops = token_drops;
        self.loss_windows = loss_windows;
        self.faults = plan;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Runs until `target` critical sections have been *measured*
    /// (post-warmup), events run out, or the time bound hits.
    pub fn run_until_cs(mut self, target: u64) -> Report {
        self.pump(|sim| sim.collector.completed_after_warmup() >= target);
        self.finish()
    }

    /// Runs until virtual time `until` (or event exhaustion).
    pub fn run_until_time(mut self, until: SimTime) -> Report {
        self.pump(|sim| sim.now >= until);
        self.finish()
    }

    /// Runs until no events remain (finite workloads only).
    pub fn run_to_quiescence(mut self) -> Report {
        self.pump(|_| false);
        self.finish()
    }

    fn finish(self) -> Report {
        let mut report = self.collector.finish(self.now, self.cfg.seed);
        let _ = &mut report;
        report
    }

    /// Consumes the simulation returning both the report and the trace.
    pub fn run_until_cs_with_trace(mut self, target: u64) -> (Report, Trace) {
        self.pump(|sim| sim.collector.completed_after_warmup() >= target);
        let trace = std::mem::take(&mut self.trace);
        (self.finish(), trace)
    }

    /// Runs a finite workload to quiescence, returning report and trace.
    pub fn run_to_quiescence_with_trace(mut self) -> (Report, Trace) {
        self.pump(|_| false);
        let trace = std::mem::take(&mut self.trace);
        (self.finish(), trace)
    }

    // ------------------------------------------------------------------
    // Event machinery
    // ------------------------------------------------------------------

    /// Records one occurrence into the in-memory trace and, when the obs
    /// filter (or flight recorder) wants it, the obs stream.
    ///
    /// `target` and `level` are those of the [`TraceKind`] the call site
    /// records, so `kind` runs (and allocates) only when something takes
    /// the record. The gate is read on every call: a flight recorder
    /// attached through [`Simulation::obs`] mid-run starts receiving
    /// records at once.
    #[inline]
    fn record(
        &mut self,
        node: NodeId,
        target: &'static str,
        level: Level,
        kind: impl FnOnce() -> TraceKind,
    ) {
        let to_obs = self.obs.enabled(target, level);
        if !to_obs && !self.trace.enabled() {
            return;
        }
        let kind = kind();
        debug_assert_eq!((kind.target(), kind.level()), (target, level));
        if to_obs {
            let ev = TraceEvent {
                at: self.now,
                node,
                kind: kind.clone(),
            };
            self.obs.emit_at(self.now.as_secs_f64(), ev.to_obs_event());
        }
        self.trace.push(self.now, node, kind);
    }

    fn pump(&mut self, stop: impl Fn(&Self) -> bool) {
        if stop(self) {
            return;
        }
        while let Some((at, kind)) = self.events.pop() {
            if let Some(maxt) = self.cfg.max_sim_time {
                if at > maxt {
                    self.now = maxt;
                    break;
                }
            }
            debug_assert!(at >= self.now, "event heap went backwards");
            self.now = at;
            match kind {
                EventKind::Arrival { node } => self.on_arrival(node),
                EventKind::Deliver { to, from, msg } => {
                    if self.drivers[to.index()].alive {
                        self.record(to, "net", Level::Trace, || TraceKind::Received {
                            from,
                            kind: msg.kind().to_owned(),
                        });
                        self.dispatch(to, Input::Deliver { from, msg });
                    }
                }
                EventKind::Timer { node, timer, gen } => {
                    let live = self
                        .timer_gen
                        .get(&(node.0, timer))
                        .is_some_and(|&g| g == gen);
                    if live && self.drivers[node.index()].alive {
                        self.dispatch(node, Input::Timer(timer));
                    }
                }
                EventKind::CsExit { node, gen } => self.on_cs_exit(node, gen),
                EventKind::Crash { node } => self.on_crash(node),
                EventKind::Recover { node } => self.on_recover(node),
            }
            if stop(self) {
                break;
            }
        }
    }

    fn on_arrival(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        let alive = d.alive;
        if alive {
            self.collector.arrival();
            d.app_queue.push_back(self.now);
            self.record(node, "node", Level::Debug, || TraceKind::Arrival);
        }
        // Open-loop streams keep their own cadence even across crashes;
        // closed-loop streams re-arm at completion instead.
        if self.drivers[node.index()].process.pacing() == Pacing::OpenLoop {
            self.schedule_next_arrival(node);
        }
        if alive {
            self.try_issue(node);
        }
    }

    fn schedule_next_arrival(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        if let Some(delay) = d.process.next_delay(&mut self.rng) {
            let at = self.now + delay;
            self.events.push(at, EventKind::Arrival { node });
        }
    }

    fn try_issue(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        if !d.alive || d.in_cs || d.outstanding.is_some() {
            return;
        }
        let Some(arrived_at) = d.app_queue.pop_front() else {
            return;
        };
        d.outstanding = Some((arrived_at, self.now));
        self.dispatch(node, Input::RequestCs);
    }

    fn on_cs_exit(&mut self, node: NodeId, gen: u64) {
        let d = &mut self.drivers[node.index()];
        if !d.alive || !d.in_cs || d.cs_gen != gen {
            return; // stale exit (crash intervened)
        }
        d.in_cs = false;
        debug_assert_eq!(self.cs_holder, Some(node));
        self.cs_holder = None;
        let (arrived_at, requested_at) = d
            .outstanding
            .take()
            .expect("a node in its CS has an outstanding request");
        self.collector
            .cs_completed(node, arrived_at, requested_at, self.now);
        self.record(node, "node", Level::Debug, || TraceKind::ExitCs);
        self.dispatch(node, Input::CsDone);
        if self.drivers[node.index()].process.pacing() == Pacing::ClosedLoop {
            self.schedule_next_arrival(node);
        }
        self.try_issue(node);
    }

    fn on_crash(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        if !d.alive {
            return;
        }
        if d.in_cs {
            d.in_cs = false;
            d.cs_gen += 1;
            self.cs_holder = None;
        }
        d.outstanding = None;
        d.app_queue.clear();
        self.record(node, "node", Level::Info, || TraceKind::Crashed);
        self.dispatch(node, Input::Crash);
        self.drivers[node.index()].alive = false;
    }

    fn on_recover(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        if d.alive {
            return;
        }
        d.alive = true;
        self.record(node, "node", Level::Info, || TraceKind::Recovered);
        self.dispatch(node, Input::Recover);
    }

    fn dispatch(&mut self, node: NodeId, input: Input<P::Msg, P::Timer>) {
        let actions = self.nodes[node.index()].step(input);
        self.execute(node, actions);
    }

    fn execute(&mut self, src: NodeId, actions: Vec<Action<P::Msg, P::Timer>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.transmit(src, to, msg),
                Action::Broadcast { msg, except } => {
                    for i in 0..self.cfg.n {
                        let to = NodeId::from_index(i);
                        if to != src && !except.contains(&to) {
                            self.transmit(src, to, msg.clone());
                        }
                    }
                }
                Action::SetTimer { timer, after } => {
                    let gen = self.timer_gen.entry((src.0, timer)).or_insert(0);
                    *gen += 1;
                    let gen = *gen;
                    self.events.push(
                        self.now + after,
                        EventKind::Timer {
                            node: src,
                            timer,
                            gen,
                        },
                    );
                }
                Action::CancelTimer(timer) => {
                    *self.timer_gen.entry((src.0, timer)).or_insert(0) += 1;
                }
                Action::EnterCs => self.on_enter_cs(src),
                Action::Note(note) => {
                    self.collector.note(note);
                    self.record(src, "arbiter", Level::Debug, || {
                        TraceKind::Note(note.label().to_owned())
                    });
                }
            }
        }
    }

    fn on_enter_cs(&mut self, node: NodeId) {
        if let Some(holder) = self.cs_holder {
            panic!(
                "MUTUAL EXCLUSION VIOLATED at {}: {} entered while {} is inside \
                 (algorithm {}, seed {})",
                self.now,
                node,
                holder,
                self.nodes[node.index()].algorithm(),
                self.cfg.seed
            );
        }
        self.cs_holder = Some(node);
        let d = &mut self.drivers[node.index()];
        debug_assert!(d.alive, "dead node entered CS");
        d.in_cs = true;
        d.cs_gen += 1;
        let gen = d.cs_gen;
        let (_, requested_at) = d
            .outstanding
            .expect("EnterCs without an outstanding request");
        self.collector.cs_entered(requested_at, self.now);
        let waited_ns = self.now.since(requested_at).as_nanos();
        let obs = &self.obs;
        self.cs_grant
            .get_or_insert_with(|| obs.registry().histogram_with("span_ns", "cs_grant"))
            .record(waited_ns);
        self.record(node, "node", Level::Debug, || TraceKind::EnterCs);
        let at = self.now + self.cfg.t_exec;
        self.events.push(at, EventKind::CsExit { node, gen });
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let kind = msg.kind();
        self.collector.message(kind);
        self.record(from, "net", Level::Trace, || TraceKind::Sent {
            to,
            kind: kind.to_owned(),
        });
        // Deterministic token-drop injection (paper §6's lost-token case).
        if crate::fault::is_token_kind(kind) && self.token_drops.take(self.now) {
            return;
        }
        if self.faults.crosses_partition(from, to, self.now) {
            return;
        }
        let loss = self
            .cfg
            .unreliability
            .loss
            .max(self.loss_windows.at(self.now));
        if self.rng.chance(loss) {
            return;
        }
        let duplicate = self
            .rng
            .chance(self.cfg.unreliability.duplication)
            .then(|| msg.clone());
        let delay = self.cfg.delay.sample(&mut self.rng);
        self.events
            .push(self.now + delay, EventKind::Deliver { to, from, msg });
        if let Some(copy) = duplicate {
            let delay = self.cfg.delay.sample(&mut self.rng);
            self.events.push(
                self.now + delay,
                EventKind::Deliver {
                    to,
                    from,
                    msg: copy,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ClosedLoop, Poisson, Scripted};
    use tokq_protocol::centralized::CentralConfig;
    use tokq_protocol::ricart_agrawala::RaConfig;

    fn quick(n: usize) -> SimConfig {
        let mut c = SimConfig::paper_defaults(n).with_seed(42);
        c.warmup_cs = 0;
        c
    }

    #[test]
    fn run_until_cs_reaches_target() {
        let r = Simulation::build(quick(3), CentralConfig::default(), Poisson::new(2.0))
            .run_until_cs(500);
        assert!(r.cs_measured >= 500);
        assert!(r.sim_end_secs > 0.0);
    }

    #[test]
    fn max_sim_time_bounds_the_run() {
        let mut cfg = quick(3);
        cfg.max_sim_time = Some(SimTime::from_secs_f64(10.0));
        let r = Simulation::build(cfg, CentralConfig::default(), Poisson::new(1.0))
            .run_until_cs(1_000_000);
        assert!(r.sim_end_secs <= 10.0 + 1e-9);
        assert!(r.cs_measured < 1_000_000);
    }

    #[test]
    fn warmup_discards_early_sections() {
        let mut cfg = quick(2);
        cfg.warmup_cs = 100;
        let r =
            Simulation::build(cfg, CentralConfig::default(), Poisson::new(5.0)).run_until_cs(200);
        assert!(r.cs_total >= 300, "total includes warmup");
        assert!(r.cs_measured >= 200);
        assert!(r.messages_measured < r.messages_total);
    }

    #[test]
    fn scripted_workload_runs_to_quiescence() {
        use tokq_protocol::types::TimeDelta;
        let w = crate::arrivals::DynWorkload::new(|node, _| {
            if node == 1 {
                Box::new(Scripted::open_loop([TimeDelta::from_millis(10)]))
            } else {
                Box::new(Scripted::silent())
            }
        });
        let r = Simulation::build(quick(3), CentralConfig::default(), w).run_to_quiescence();
        assert_eq!(r.cs_total, 1);
        assert_eq!(r.per_node_cs, vec![0, 1, 0]);
        // Exactly REQUEST + GRANT + RELEASE.
        assert_eq!(r.messages_total, 3);
    }

    #[test]
    fn closed_loop_paces_on_completion() {
        use tokq_protocol::types::TimeDelta;
        let mut cfg = quick(2);
        cfg.max_sim_time = Some(SimTime::from_secs_f64(10.0));
        // Think time 0.9s + CS 0.1s (+ messages) => about 1 CS/sec/node.
        let r = Simulation::build(
            cfg,
            CentralConfig::default(),
            ClosedLoop {
                think: TimeDelta::from_millis(900),
            },
        )
        .run_until_cs(1_000_000);
        let per_sec = r.cs_total as f64 / r.sim_end_secs;
        assert!(
            (1.2..=2.2).contains(&per_sec),
            "closed loop rate {per_sec:.2} CS/s"
        );
    }

    #[test]
    fn loss_makes_permissionless_protocols_stall() {
        // RA with no recovery: a lost REPLY wedges the requester forever.
        let mut cfg = quick(4);
        cfg.unreliability = Unreliability::lossy(0.2);
        cfg.max_sim_time = Some(SimTime::from_secs_f64(2_000.0));
        let r = Simulation::build(cfg, RaConfig, Poisson::new(1.0)).run_until_cs(1_000_000);
        assert!(
            r.cs_measured < 1_000_000,
            "20% loss must eventually stall Ricart-Agrawala"
        );
    }

    #[test]
    fn duplication_does_not_violate_safety_for_centralized() {
        // The centralized coordinator queues duplicates but its single
        // grant token means safety holds; liveness holds because releases
        // regenerate grants.
        let mut cfg = quick(3);
        cfg.unreliability.duplication = 0.3;
        let r =
            Simulation::build(cfg, CentralConfig::default(), Poisson::new(2.0)).run_until_cs(300);
        assert!(r.cs_measured >= 300);
    }

    #[test]
    fn report_counts_messages_by_kind() {
        let r = Simulation::build(quick(3), CentralConfig::default(), Poisson::new(2.0))
            .run_until_cs(100);
        let req = r.kind_count("REQUEST");
        let grant = r.kind_count("GRANT");
        let rel = r.kind_count("RELEASE");
        assert!(req > 0 && grant > 0 && rel > 0);
        // Every remote grant pairs with a release.
        assert!((grant as i64 - rel as i64).abs() <= 1);
    }

    mod prop {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn event_queue_pops_by_time_then_insertion(
                ops in vec((0u64..20, 0u32..3), 1..200),
            ) {
                // Op 0 pops; others push at the drawn time. Payloads are
                // the insertion index, so the order is checked exactly.
                let mut queue = EventQueue::new();
                let mut reference = BinaryHeap::new();
                let (mut pushed, mut peak) = (0u64, 0usize);
                for (t, op) in ops.into_iter().chain(std::iter::repeat_n((0, 0), 200)) {
                    if op == 0 {
                        let want = reference.pop().map(|Reverse((at, i))| (at, i));
                        prop_assert_eq!(queue.pop(), want);
                    } else {
                        pushed += 1;
                        queue.push(SimTime::from_nanos(t), pushed);
                        reference.push(Reverse((SimTime::from_nanos(t), pushed)));
                        peak = peak.max(reference.len());
                    }
                }
                // Freed slots are reused: the slab never outgrows the peak.
                prop_assert_eq!(queue.slab.len(), peak);
            }
        }
    }

    #[test]
    fn trace_capture_returns_events() {
        let mut cfg = quick(2);
        cfg.trace = true;
        let (r, trace) = Simulation::build(cfg, CentralConfig::default(), Poisson::new(2.0))
            .run_until_cs_with_trace(20);
        assert!(r.cs_measured >= 20);
        assert!(!trace.events().is_empty());
        let rendered = trace.render();
        assert!(rendered.contains("ENTERS"), "{rendered}");
    }
}
