//! The per-node event loop: drives one [`ArbiterNode`] state machine *per
//! shard* with real messages, real timers, and application lock requests.
//!
//! A node owns `K` independent protocol instances (shards) but a single
//! inbox, a single thread, and a single transport. The thread waits in
//! exactly one place: its [`Poller`], until the earliest pending timer
//! deadline. The poller watches the inbox's bell (an edge-triggered
//! eventfd that posts ring only while the loop is parked) and, on the TCP
//! transport, every socket of the node: its listener, the connections it
//! accepted, and its own outbound connection to each peer, whose frames
//! it writes itself. Frames read in a wakeup and the inbox events taken
//! with them are bucketed by shard and dispatched in one pass, so a burst
//! of traffic on one shard is amortized into one pass instead of `K`
//! interleaved context switches; control events (crash/recover/shutdown)
//! act as batch barriers because they affect every shard at once.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::Sender;
use tokq_obs::{span, Counter, Event, Histogram, Level, Obs, SpanGuard};
use tokq_protocol::api::Protocol;
use tokq_protocol::arbiter::{ArbiterMsg, ArbiterNode, ArbiterTimer};
use tokq_protocol::event::{Action, Input, Note};
use tokq_protocol::types::NodeId;
use tokq_sys::{Events, Interest, Poller};

use crate::fault::FaultPanel;
use crate::inbox::InboxRx;
use crate::metrics::ClusterMetrics;
use crate::service::{LockError, ShardId};
use crate::tcp::{Inbound, Outbound};
use crate::transport::{ChannelTransport, Envelope};
use crate::wire;

/// Trace target for protocol-level observations (notes, phases).
const T_ARBITER: &str = "arbiter";
/// Trace target for node lifecycle and lock servicing.
const T_NODE: &str = "node";
/// Trace target for per-message wire traffic.
const T_NET: &str = "net";

/// How many inbox events one drain pass may swallow before dispatching.
const BATCH: usize = 128;

/// Poller token of the inbox bell; [`Inbound`] owns the tokens above it,
/// up to [`Outbound::FIRST_TOKEN`].
const BELL: u64 = 0;

/// Ready descriptors taken per poller wait; more stay ready for the next.
const POLL_EVENTS: usize = 64;

/// Passes in a row that may find inbox work, and so skip the poller,
/// before one looks at the sockets anyway: a busy inbox cannot starve
/// the network.
const POLL_EVERY: u32 = 8;

/// What an [`NodeEvent::Acquire`] waiter eventually hears back: the CS
/// generation of its grant, or a typed refusal.
pub(crate) type GrantReply = Result<u64, LockError>;

/// Events consumed by a node thread.
#[derive(Debug)]
pub(crate) enum NodeEvent {
    /// An encoded protocol frame arrived. The owning shard rides inside
    /// the frame header and is recovered at decode time.
    Wire { from: NodeId, frame: Bytes },
    /// An application thread wants the lock on `shard`; the sender
    /// receives the grant's CS generation when the critical section is
    /// granted, or a [`LockError`] if it never can be.
    Acquire {
        shard: ShardId,
        grant: Sender<GrantReply>,
    },
    /// The guard was dropped: the critical section on `shard` is over.
    /// Carries the generation the guard was granted under, so a stale
    /// guard from before a crash cannot release somebody else's critical
    /// section.
    Release {
        /// Shard the releasing guard belongs to.
        shard: ShardId,
        /// CS generation the releasing guard was granted under.
        gen: u64,
    },
    /// The cluster's fault panel changed: retry the links whose frames
    /// wait behind a blocked link.
    LinksChanged,
    /// Simulated process crash (volatile state lost on every shard).
    Crash,
    /// Restart after a crash.
    Recover,
    /// Terminate the event loop.
    Shutdown,
}

impl NodeEvent {
    /// Control events touch every shard at once and therefore act as
    /// batch barriers in the drain loop.
    fn is_control(&self) -> bool {
        matches!(
            self,
            NodeEvent::Crash | NodeEvent::Recover | NodeEvent::Shutdown
        )
    }
}

/// A decoded, shard-attributed unit of work produced by the drain pass.
enum ShardWork {
    Deliver { from: NodeId, msg: ArbiterMsg },
    Acquire { grant: Sender<GrantReply> },
    Release { gen: u64 },
}

/// Number of [`ArbiterTimer`] kinds.
const TIMER_KINDS: usize = 8;

/// Every [`ArbiterTimer`], indexed by [`timer_slot`].
const TIMERS: [ArbiterTimer; TIMER_KINDS] = [
    ArbiterTimer::CollectionEnd,
    ArbiterTimer::ForwardEnd,
    ArbiterTimer::TokenWait,
    ArbiterTimer::ArbiterWait,
    ArbiterTimer::EnquiryTimeout,
    ArbiterTimer::HandoverWatch,
    ArbiterTimer::ProbeTimeout,
    ArbiterTimer::RequestRetry,
];

/// Dense index of `timer`'s kind into [`TIMERS`].
fn timer_slot(timer: ArbiterTimer) -> usize {
    match timer {
        ArbiterTimer::CollectionEnd => 0,
        ArbiterTimer::ForwardEnd => 1,
        ArbiterTimer::TokenWait => 2,
        ArbiterTimer::ArbiterWait => 3,
        ArbiterTimer::EnquiryTimeout => 4,
        ArbiterTimer::HandoverWatch => 5,
        ArbiterTimer::ProbeTimeout => 6,
        ArbiterTimer::RequestRetry => 7,
    }
}

/// Pending protocol timers: at most one deadline per (shard, timer kind).
/// Setting a timer replaces its deadline and cancelling clears it, so a
/// re-armed timer fires once, at its last arming, and the table never
/// grows past `shards × TIMER_KINDS` entries.
struct TimerTable {
    due: Vec<Option<Instant>>,
}

impl TimerTable {
    fn new(shards: usize) -> Self {
        TimerTable {
            due: vec![None; shards * TIMER_KINDS],
        }
    }

    fn slot(shard: ShardId, timer: ArbiterTimer) -> usize {
        shard.index() * TIMER_KINDS + timer_slot(timer)
    }

    fn set(&mut self, shard: ShardId, timer: ArbiterTimer, due: Instant) {
        self.due[Self::slot(shard, timer)] = Some(due);
    }

    fn cancel(&mut self, shard: ShardId, timer: ArbiterTimer) {
        self.due[Self::slot(shard, timer)] = None;
    }

    fn clear(&mut self) {
        self.due.fill(None);
    }

    /// The slot and deadline of the earliest pending timer (the lowest
    /// slot among equal deadlines).
    fn earliest(&self) -> Option<(usize, Instant)> {
        self.due
            .iter()
            .enumerate()
            .filter_map(|(slot, due)| due.map(|due| (slot, due)))
            .min_by_key(|&(_, due)| due)
    }

    /// Clears `slot` and names the timer it held.
    fn take(&mut self, slot: usize) -> (ShardId, ArbiterTimer) {
        self.due[slot] = None;
        (
            ShardId((slot / TIMER_KINDS) as u16),
            TIMERS[slot % TIMER_KINDS],
        )
    }
}

/// Per-shard protocol state: one independent arbiter instance plus the
/// lock-service bookkeeping that belongs to it.
struct ShardState {
    protocol: ArbiterNode,
    /// Pending grant channels paired with their acquire time, for the
    /// CS-grant latency histogram. Waiters survive a crash: on recovery
    /// the node re-requests the lock on their behalf.
    waiters: VecDeque<(Sender<GrantReply>, Instant)>,
    /// Open `request_collection` span while this shard's arbiter window
    /// collects requests (closed by the Q-list seal).
    collection_span: Option<SpanGuard>,
    /// Open `forwarding_phase` span while this shard relays late requests
    /// to its successor.
    forwarding_span: Option<SpanGuard>,
    engaged: bool,
    in_cs: bool,
    /// CS generation: bumped on every grant and on every crash, so a
    /// [`NodeEvent::Release`] from a guard granted in an earlier era is
    /// recognized as stale and ignored.
    cs_gen: u64,
}

impl ShardState {
    fn new(protocol: ArbiterNode) -> Self {
        ShardState {
            protocol,
            waiters: VecDeque::new(),
            collection_span: None,
            forwarding_span: None,
            engaged: false,
            in_cs: false,
            cs_gen: 0,
        }
    }
}

/// Number of [`ArbiterMsg`] kinds, one `handle_ns` histogram each.
const MSG_KINDS: usize = 11;

/// Dense index of `msg`'s kind into [`HotObs::handle_ns`].
fn kind_slot(msg: &ArbiterMsg) -> usize {
    match msg {
        ArbiterMsg::Request { .. } => 0,
        ArbiterMsg::Privilege(_) => 1,
        ArbiterMsg::NewArbiter { .. } => 2,
        ArbiterMsg::MonitorSubmit { .. } => 3,
        ArbiterMsg::Warning { .. } => 4,
        ArbiterMsg::Enquiry { .. } => 5,
        ArbiterMsg::EnquiryReply { .. } => 6,
        ArbiterMsg::Resume => 7,
        ArbiterMsg::Invalidate { .. } => 8,
        ArbiterMsg::Probe => 9,
        ArbiterMsg::ProbeAck { .. } => 10,
    }
}

/// Registry handles recorded into on every frame, grant or note, looked
/// up once per node rather than once per use (each lookup read-locks the
/// registry, probes a hashed map and clones an `Arc`). Labelled handles
/// are registered on first use, so the registry lists only the kinds and
/// notes this node actually saw.
struct HotObs {
    wire_bytes_in: Counter,
    wire_bytes_out: Counter,
    cs_grant: Histogram,
    /// `handle_ns/<kind>` by [`kind_slot`].
    handle_ns: [Option<Histogram>; MSG_KINDS],
    /// `msg_sent/<kind>` by [`kind_slot`].
    msg_sent: [Option<Counter>; MSG_KINDS],
    /// `note/<label>` in first-seen order. Labels are `&'static str`
    /// literals, so one is almost always found by address among a
    /// handful; the same text at another address falls back to
    /// comparing text.
    notes: Vec<(&'static str, Counter)>,
}

impl HotObs {
    fn new(obs: &Obs) -> Self {
        HotObs {
            wire_bytes_in: obs.registry().counter("wire_bytes_in"),
            wire_bytes_out: obs.registry().counter("wire_bytes_out"),
            cs_grant: obs.registry().histogram_with("span_ns", "cs_grant"),
            handle_ns: Default::default(),
            msg_sent: Default::default(),
            notes: Vec::new(),
        }
    }

    /// Counts one `label` note.
    fn note(&mut self, metrics: &ClusterMetrics, label: &'static str) {
        let found = self
            .notes
            .iter()
            .position(|&(l, _)| std::ptr::eq(l, label))
            .or_else(|| self.notes.iter().position(|&(l, _)| l == label));
        let idx = found.unwrap_or_else(|| {
            self.notes.push((label, metrics.note_counter(label)));
            self.notes.len() - 1
        });
        self.notes[idx].1.inc();
    }
}

/// How a node reaches its peers, as the cluster hands it over.
pub(crate) enum NodeNet {
    /// The in-process channel transport, shared by every node.
    Channel(Arc<ChannelTransport>),
    /// Loopback TCP: this node's listener, every node's address (by id)
    /// and the cluster's fault panel.
    Tcp {
        listener: TcpListener,
        peers: Vec<SocketAddr>,
        panel: FaultPanel,
    },
}

/// A node's transport, as its loop runs it.
enum Net {
    Channel(Arc<ChannelTransport>),
    /// Both halves of the node's TCP endpoint, served by its poller.
    Tcp {
        inbound: Inbound,
        outbound: Outbound,
    },
}

pub(crate) struct NodeLoop {
    id: NodeId,
    shards: Vec<ShardState>,
    inbox: InboxRx,
    poller: Poller,
    events: Events,
    net: Net,
    /// Frames read in the current wakeup, before staging.
    frames: Vec<(NodeId, Bytes)>,
    metrics: Arc<ClusterMetrics>,
    obs: Obs,
    hot: HotObs,
    n: usize,

    timers: TimerTable,

    alive: bool,
    /// Internally generated events processed before external ones
    /// (e.g. auto-release when a grantee abandoned its request).
    backlog: VecDeque<NodeEvent>,
    /// Events taken from the inbox and not yet handled: a drain pass
    /// stops at [`BATCH`] events or a control barrier.
    incoming: VecDeque<NodeEvent>,
    /// Per-shard staging buffers for one drain pass. Persistent across
    /// passes so the (very hot) one-event-per-wakeup case costs no
    /// allocation once the deques have warmed up.
    buckets: Vec<VecDeque<ShardWork>>,
}

impl NodeLoop {
    /// A loop for one node's `shards`, fed by `inbox` and sending and
    /// receiving over `net`.
    ///
    /// # Errors
    ///
    /// Creating the epoll instance or registering the inbox bell or the
    /// listener with it (the descriptor limit, in practice).
    pub(crate) fn new(
        shards: Vec<ArbiterNode>,
        inbox: InboxRx,
        net: NodeNet,
        metrics: Arc<ClusterMetrics>,
    ) -> std::io::Result<Self> {
        assert!(!shards.is_empty(), "a node runs at least one shard");
        let id = shards[0].id();
        let n = shards[0].num_nodes();
        let k = shards.len();
        let obs = metrics.obs().clone();
        let hot = HotObs::new(&obs);
        let poller = Poller::new()?;
        poller.register(inbox.bell(), BELL, Interest::READABLE.edge())?;
        let net = match net {
            NodeNet::Channel(transport) => Net::Channel(transport),
            NodeNet::Tcp {
                listener,
                peers,
                panel,
            } => Net::Tcp {
                inbound: Inbound::new(listener, &poller)?,
                outbound: Outbound::new(id, peers, &obs, panel),
            },
        };
        Ok(NodeLoop {
            id,
            shards: shards.into_iter().map(ShardState::new).collect(),
            inbox,
            poller,
            events: Events::with_capacity(POLL_EVENTS),
            net,
            frames: Vec::new(),
            metrics,
            obs,
            hot,
            n,
            timers: TimerTable::new(k),
            alive: true,
            backlog: VecDeque::new(),
            incoming: VecDeque::new(),
            buckets: (0..k).map(|_| VecDeque::new()).collect(),
        })
    }

    pub(crate) fn run(mut self) {
        for s in 0..self.shards.len() {
            self.dispatch(ShardId(s as u16), Input::Start);
        }
        let mut unpolled = 0;
        loop {
            if let Some(ev) = self.backlog.pop_front() {
                if self.handle(ev) {
                    return;
                }
                continue;
            }
            let next_due = self.fire_due_timers();
            if self.incoming.is_empty() && self.backlog.is_empty() {
                if self.inbox.park() {
                    self.poll(next_due);
                    self.inbox.unpark();
                    unpolled = 0;
                } else if matches!(self.net, Net::Tcp { .. }) && unpolled >= POLL_EVERY {
                    self.poll(Some(Instant::now()));
                    unpolled = 0;
                } else {
                    unpolled += 1;
                }
                self.inbox.take(&mut self.incoming, BATCH);
            }
            if self.drain() {
                return;
            }
        }
    }

    /// Waits on the poller until `deadline` (`None`: until something is
    /// ready), then serves every ready socket: reads the inbound ones and
    /// stages their frames, and writes out the outbound ones.
    fn poll(&mut self, deadline: Option<Instant>) {
        let (listener_due, links_due) = match &self.net {
            Net::Tcp { inbound, outbound } => (inbound.resume_at(), outbound.resume_at()),
            Net::Channel(_) => (None, None),
        };
        let deadline = [deadline, listener_due, links_due]
            .into_iter()
            .flatten()
            .min();
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        self.poller
            .wait(&mut self.events, timeout)
            .expect("waiting on the node's own epoll instance");
        let Net::Tcp { inbound, outbound } = &mut self.net else {
            return;
        };
        inbound.resume(&self.poller);
        for token in self.events.tokens() {
            if token >= Outbound::FIRST_TOKEN {
                outbound.ready(&self.poller, token);
            } else if token != BELL {
                inbound.ready(&self.poller, token, &mut self.frames);
            }
        }
        if links_due.is_some_and(|at| at <= Instant::now()) {
            outbound.resume(&self.poller);
        }
        let mut frames = std::mem::take(&mut self.frames);
        for (from, frame) in frames.drain(..) {
            self.stage(NodeEvent::Wire { from, frame });
        }
        self.frames = frames;
    }

    /// Stages up to [`BATCH`] taken inbox events into the per-shard
    /// buckets, next to any frames the last poll staged (preserving each
    /// shard's arrival order — cross-shard order is immaterial, the
    /// instances are independent), then dispatches one shard at a time.
    /// A control event ends the batch (it is a barrier across all
    /// shards). Returns `true` on shutdown.
    fn drain(&mut self) -> bool {
        let mut barrier = None;
        for _ in 0..BATCH {
            match self.incoming.pop_front() {
                Some(ev) if ev.is_control() => {
                    barrier = Some(ev);
                    break;
                }
                Some(ev) => self.stage(ev),
                None => break,
            }
        }
        for idx in 0..self.buckets.len() {
            let shard = ShardId(idx as u16);
            while let Some(work) = self.buckets[idx].pop_front() {
                self.handle_shard_work(shard, work);
            }
        }
        match barrier {
            Some(ev) => self.handle(ev),
            None => false,
        }
    }

    /// Classifies one data event into its shard's staging bucket.
    fn stage(&mut self, ev: NodeEvent) {
        if let Some((shard, work)) = self.classify(ev) {
            self.buckets[shard.index()].push_back(work);
        }
    }

    /// Decodes/attributes one data event to its shard, or absorbs it
    /// (dead-node traffic, corrupt frames, out-of-range shard ids).
    fn classify(&mut self, ev: NodeEvent) -> Option<(ShardId, ShardWork)> {
        match ev {
            NodeEvent::Wire { from, frame } => {
                if !self.alive {
                    return None;
                }
                self.hot.wire_bytes_in.add(frame.len() as u64);
                match wire::decode(&frame) {
                    Ok((shard, msg)) if shard.index() < self.shards.len() => {
                        use tokq_protocol::api::ProtocolMessage;
                        if self.obs.enabled(T_NET, Level::Trace) {
                            self.obs.emit(
                                Event::new(T_NET, Level::Trace, "msg_recv")
                                    .node(u64::from(self.id.0))
                                    .shard(u64::from(shard.0))
                                    .field("from", &from.0)
                                    .field("kind", &msg.kind())
                                    .field("bytes", &(frame.len() as u64)),
                            );
                        }
                        Some((shard, ShardWork::Deliver { from, msg }))
                    }
                    Ok((shard, _)) => {
                        // A frame for a shard this cluster does not run:
                        // drop it like a lost message rather than panic.
                        self.hot.note(&self.metrics, "wire_shard_out_of_range");
                        if self.obs.enabled(T_NET, Level::Debug) {
                            self.obs.emit(
                                Event::new(T_NET, Level::Debug, "wire_shard_out_of_range")
                                    .node(u64::from(self.id.0))
                                    .shard(u64::from(shard.0))
                                    .field("from", &from.0),
                            );
                        }
                        None
                    }
                    Err(err) => {
                        // A corrupt frame is dropped like a lost message.
                        self.hot.note(&self.metrics, "wire_decode_error");
                        if self.obs.enabled(T_NET, Level::Debug) {
                            self.obs.emit(
                                Event::new(T_NET, Level::Debug, "wire_decode_error")
                                    .node(u64::from(self.id.0))
                                    .field("from", &from.0)
                                    .field("error", &format!("{err:?}")),
                            );
                        }
                        None
                    }
                }
            }
            NodeEvent::Acquire { shard, grant } => {
                if shard.index() >= self.shards.len() {
                    let _ = grant.send(Err(LockError::ShuttingDown));
                    return None;
                }
                if !self.alive {
                    // New demand on a crashed node fails fast; waiters
                    // enqueued *before* the crash still survive it.
                    self.hot.note(&self.metrics, "acquire_on_crashed_node");
                    let _ = grant.send(Err(LockError::NodeDown));
                    return None;
                }
                Some((shard, ShardWork::Acquire { grant }))
            }
            NodeEvent::Release { shard, gen } => {
                if shard.index() >= self.shards.len() {
                    return None;
                }
                Some((shard, ShardWork::Release { gen }))
            }
            NodeEvent::LinksChanged => {
                if let Net::Tcp { outbound, .. } = &mut self.net {
                    outbound.resume(&self.poller);
                }
                None
            }
            NodeEvent::Crash | NodeEvent::Recover | NodeEvent::Shutdown => {
                unreachable!("control events are handled as barriers")
            }
        }
    }

    fn handle_shard_work(&mut self, shard: ShardId, work: ShardWork) {
        match work {
            ShardWork::Deliver { from, msg } => {
                use tokq_protocol::api::ProtocolMessage;
                let (kind, slot) = (msg.kind(), kind_slot(&msg));
                let start = Instant::now();
                self.dispatch(shard, Input::Deliver { from, msg });
                let elapsed = start.elapsed();
                self.hot.handle_ns[slot]
                    .get_or_insert_with(|| self.obs.registry().histogram_with("handle_ns", kind))
                    .record_duration(elapsed);
            }
            ShardWork::Acquire { grant } => {
                self.metrics.cs_requested(shard);
                self.shards[shard.index()]
                    .waiters
                    .push_back((grant, Instant::now()));
                self.pump_lock(shard);
            }
            ShardWork::Release { gen } => {
                let st = &mut self.shards[shard.index()];
                if gen != st.cs_gen {
                    // A guard from before a crash (or an abandoned grant
                    // from an earlier era): its critical section no longer
                    // exists, so releasing would end somebody else's.
                    self.hot.note(&self.metrics, "stale_release_ignored");
                    return;
                }
                if st.in_cs {
                    st.in_cs = false;
                    st.engaged = false;
                    self.metrics.cs_completed(shard);
                    if self.obs.enabled(T_NODE, Level::Debug) {
                        self.obs.emit(
                            Event::new(T_NODE, Level::Debug, "cs_released")
                                .node(u64::from(self.id.0))
                                .shard(u64::from(shard.0)),
                        );
                    }
                    self.dispatch(shard, Input::CsDone);
                    self.pump_lock(shard);
                }
            }
        }
    }

    /// Handles one event outside a batch (backlog entries and control
    /// barriers). Returns `true` on shutdown.
    fn handle(&mut self, ev: NodeEvent) -> bool {
        match ev {
            NodeEvent::Crash => {
                if self.alive {
                    for s in 0..self.shards.len() {
                        self.dispatch(ShardId(s as u16), Input::Crash);
                    }
                    self.alive = false;
                    for st in &mut self.shards {
                        st.in_cs = false;
                        st.engaged = false;
                        // Invalidate any outstanding guard: its release
                        // (or an in-flight grant consumed late) must not
                        // close a post-recovery critical section.
                        st.cs_gen += 1;
                        // Waiters survive: their application threads are
                        // still blocked on the grant channel, so the
                        // recovered node re-requests on their behalf
                        // instead of stranding them.
                        st.collection_span = None;
                        st.forwarding_span = None;
                    }
                    self.timers.clear();
                    if self.obs.enabled(T_NODE, Level::Info) {
                        self.obs.emit(
                            Event::new(T_NODE, Level::Info, "crashed").node(u64::from(self.id.0)),
                        );
                    }
                }
                false
            }
            NodeEvent::Recover => {
                if !self.alive {
                    self.alive = true;
                    if self.obs.enabled(T_NODE, Level::Info) {
                        self.obs.emit(
                            Event::new(T_NODE, Level::Info, "recovered").node(u64::from(self.id.0)),
                        );
                    }
                    for s in 0..self.shards.len() {
                        self.dispatch(ShardId(s as u16), Input::Recover);
                    }
                    for s in 0..self.shards.len() {
                        let shard = ShardId(s as u16);
                        if !self.shards[s].waiters.is_empty() {
                            // Re-issue the lock request for waiters that
                            // survived the crash, counted separately from
                            // fresh demand.
                            self.metrics.cs_rerequested(shard);
                            self.shards[s].engaged = true;
                            self.dispatch(shard, Input::RequestCs);
                        }
                    }
                }
                false
            }
            NodeEvent::Shutdown => true,
            other => {
                // Backlog data events (e.g. auto-release) take the same
                // path as batched ones.
                if let Some((shard, work)) = self.classify(other) {
                    self.handle_shard_work(shard, work);
                }
                false
            }
        }
    }

    fn pump_lock(&mut self, shard: ShardId) {
        let st = &self.shards[shard.index()];
        if self.alive && !st.engaged && !st.in_cs && !st.waiters.is_empty() {
            self.shards[shard.index()].engaged = true;
            self.dispatch(shard, Input::RequestCs);
        }
    }

    /// Fires every due timer, earliest first, and returns the deadline of
    /// the next one still pending.
    fn fire_due_timers(&mut self) -> Option<Instant> {
        loop {
            let (slot, due) = self.timers.earliest()?;
            if due > Instant::now() {
                return Some(due);
            }
            let (shard, timer) = self.timers.take(slot);
            if self.alive {
                self.dispatch(shard, Input::Timer(timer));
            }
        }
    }

    fn dispatch(&mut self, shard: ShardId, input: Input<ArbiterMsg, ArbiterTimer>) {
        let actions = self.shards[shard.index()].protocol.step(input);
        self.execute(shard, actions);
    }

    fn execute(&mut self, shard: ShardId, actions: Vec<Action<ArbiterMsg, ArbiterTimer>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.transmit(shard, to, &msg),
                Action::Broadcast { msg, except } => {
                    for i in 0..self.n {
                        let to = NodeId::from_index(i);
                        if to != self.id && !except.contains(&to) {
                            self.transmit(shard, to, &msg);
                        }
                    }
                }
                Action::SetTimer { timer, after } => {
                    self.timers.set(shard, timer, Instant::now() + after.into());
                }
                Action::CancelTimer(timer) => self.timers.cancel(shard, timer),
                Action::EnterCs => {
                    let st = &mut self.shards[shard.index()];
                    st.in_cs = true;
                    st.cs_gen += 1;
                    let cs_gen = st.cs_gen;
                    match st.waiters.pop_front() {
                        Some((grant, since)) if grant.send(Ok(cs_gen)).is_ok() => {
                            let waited = since.elapsed();
                            self.hot.cs_grant.record_duration(waited);
                            if self.obs.enabled(T_NODE, Level::Debug) {
                                self.obs.emit(
                                    Event::new(T_NODE, Level::Debug, "cs_granted")
                                        .node(u64::from(self.id.0))
                                        .shard(u64::from(shard.0))
                                        .field(
                                            "wait_ns",
                                            &(waited.as_nanos().min(u128::from(u64::MAX)) as u64),
                                        ),
                                );
                            }
                        }
                        _ => {
                            // The waiter gave up (timeout) or vanished:
                            // release immediately so the token moves on.
                            self.backlog
                                .push_back(NodeEvent::Release { shard, gen: cs_gen });
                        }
                    }
                }
                Action::Note(note) => {
                    self.hot.note(&self.metrics, note.label());
                    if self.obs.enabled(T_ARBITER, Level::Debug) {
                        self.obs.emit(
                            Event::new(T_ARBITER, Level::Debug, note.label())
                                .node(u64::from(self.id.0))
                                .shard(u64::from(shard.0))
                                .field("detail", &note),
                        );
                    }
                    // Phase notes open/close wall-clock spans: dropping a
                    // guard emits `span_close` and records the duration in
                    // the `span_ns/<name>` histogram.
                    let st = &mut self.shards[shard.index()];
                    match note {
                        Note::CollectionOpened => {
                            st.collection_span = Some(
                                span!(self.obs, T_ARBITER, "request_collection")
                                    .on_node(u64::from(self.id.0)),
                            );
                        }
                        Note::QListSealed { .. } | Note::SelfGrant => {
                            st.collection_span = None;
                        }
                        Note::ForwardingOpened { .. } => {
                            st.forwarding_span = Some(
                                span!(self.obs, T_ARBITER, "forwarding_phase")
                                    .on_node(u64::from(self.id.0)),
                            );
                        }
                        Note::ForwardingClosed => st.forwarding_span = None,
                        _ => {}
                    }
                }
            }
        }
    }

    fn transmit(&mut self, shard: ShardId, to: NodeId, msg: &ArbiterMsg) {
        use tokq_protocol::api::ProtocolMessage;
        let kind = msg.kind();
        let sent = self.hot.msg_sent[kind_slot(msg)]
            .get_or_insert_with(|| self.metrics.kind_counter(kind));
        self.metrics.message(shard, sent);
        let frame = wire::encode(shard, msg);
        self.hot.wire_bytes_out.add(frame.len() as u64);
        if self.obs.enabled(T_NET, Level::Trace) {
            self.obs.emit(
                Event::new(T_NET, Level::Trace, "msg_sent")
                    .node(u64::from(self.id.0))
                    .shard(u64::from(shard.0))
                    .field("to", &to.0)
                    .field("kind", &kind)
                    .field("bytes", &(frame.len() as u64)),
            );
        }
        match &mut self.net {
            Net::Channel(transport) => transport.send(Envelope {
                from: self.id,
                to,
                frame,
            }),
            Net::Tcp { outbound, .. } => outbound.send(&self.poller, to, frame),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tokq_protocol::api::ProtocolMessage;
    use tokq_protocol::arbiter::{Token, TokenStatus};
    use tokq_protocol::qlist::QList;
    use tokq_protocol::types::{Priority, SeqNum};

    #[test]
    fn every_message_kind_has_its_own_handle_ns_slot() {
        let msgs = [
            ArbiterMsg::Request {
                requester: NodeId(1),
                seq: SeqNum(1),
                priority: Priority(0),
                hops: 0,
            },
            ArbiterMsg::Privilege(Token::initial(2)),
            ArbiterMsg::NewArbiter {
                arbiter: NodeId(1),
                q: QList::new(),
                prev: NodeId(0),
                round: 1,
                counter: 0,
                epoch: 0,
                monitor: None,
            },
            ArbiterMsg::MonitorSubmit {
                requester: NodeId(1),
                seq: SeqNum(1),
                priority: Priority(0),
            },
            ArbiterMsg::Warning { round: 1 },
            ArbiterMsg::Enquiry { epoch: 0 },
            ArbiterMsg::EnquiryReply {
                status: TokenStatus::Waiting,
            },
            ArbiterMsg::Resume,
            ArbiterMsg::Invalidate { epoch: 1 },
            ArbiterMsg::Probe,
            ArbiterMsg::ProbeAck { arbiter: true },
        ];
        let mut kinds = [""; MSG_KINDS];
        for msg in &msgs {
            let slot = kind_slot(msg);
            assert_eq!(kinds[slot], "", "slot {slot} shared by two kinds");
            kinds[slot] = msg.kind();
        }
        assert!(kinds.iter().all(|k| !k.is_empty()));
    }

    #[test]
    fn timer_slots_and_timers_are_inverse() {
        for (slot, &timer) in TIMERS.iter().enumerate() {
            assert_eq!(timer_slot(timer), slot, "{timer:?}");
        }
    }

    #[test]
    fn re_arming_keeps_one_entry_per_timer_and_fires_only_the_last_arming() {
        const SHARDS: usize = 4;
        let mut table = TimerTable::new(SHARDS);
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        // 100k re-arms spread over every (shard, kind), each later than
        // the one before.
        for i in 0..100_000u64 {
            let shard = ShardId((i as usize % SHARDS) as u16);
            let timer = TIMERS[(i as usize / SHARDS) % TIMER_KINDS];
            table.set(shard, timer, at(i + 1));
        }
        let pending = table.due.iter().flatten().count();
        assert!(pending <= SHARDS * TIMER_KINDS, "{pending} entries");
        // Nothing fires at the deadlines of superseded armings...
        let last_round = 100_000 - (SHARDS * TIMER_KINDS) as u64;
        assert!(table
            .earliest()
            .is_some_and(|(_, due)| due > at(last_round)));
        // ...and each timer fires exactly once, at its last arming.
        let mut fired = Vec::new();
        while let Some((slot, due)) = table.earliest() {
            fired.push((table.take(slot), due));
        }
        assert_eq!(fired.len(), SHARDS * TIMER_KINDS);
        assert!(fired.windows(2).all(|w| w[0].1 <= w[1].1), "earliest first");
        assert_eq!(fired.last().map(|f| f.1), Some(at(100_000)));
    }

    #[test]
    fn cancel_and_clear_drop_pending_timers() {
        let mut table = TimerTable::new(2);
        let due = Instant::now();
        table.set(ShardId(1), ArbiterTimer::RequestRetry, due);
        table.set(ShardId(0), ArbiterTimer::TokenWait, due);
        table.cancel(ShardId(1), ArbiterTimer::RequestRetry);
        let (slot, _) = table.earliest().expect("one left");
        assert_eq!(table.take(slot), (ShardId(0), ArbiterTimer::TokenWait));
        assert!(table.earliest().is_none());
        table.set(ShardId(1), ArbiterTimer::ProbeTimeout, due);
        table.clear();
        assert!(table.earliest().is_none());
    }
}
