//! A node of the runtime: one [`ArbiterNode`] state machine *per shard*,
//! driven with real messages, real timers and application lock calls.
//!
//! A node's mutable state — its shards and their waiters, its timers, its
//! transport and its metric handles — lives in one [`NodeCore`] behind a
//! mutex, and two kinds of thread drive it:
//!
//! * **Lock callers.** [`Node::acquire`] and [`Node::release`] lock the
//!   core and step `RequestCs` / `CsDone` on the calling thread, executing
//!   what the step asks for themselves: frames go into the node's sockets
//!   (or peers' inboxes) from the calling thread. On a shard no other node
//!   has wanted for [`QUIET`], the caller also fires the timers that fell
//!   due, so with no collection window the seal and the grant happen
//!   inside the call and a caller granted its own request returns without
//!   blocking. A caller whose grant needs anything else waits on its
//!   thread's [`GrantSlot`], and whichever thread steps the grant writes
//!   it there.
//! * **A reactor.** A cluster runs one [`Reactor`] thread per CPU, at most
//!   one per node; node `i` belongs to reactor `i mod P`. Each node keeps
//!   its own [`Poller`], which watches the inbox's bell (an edge-triggered
//!   eventfd) and, on the TCP transport, every socket of the node: its
//!   listener, the connections it accepted, and its own outbound
//!   connection to each peer. The reactor registers every node poller it
//!   serves in an epoll instance of its own and waits there, until the
//!   earliest deadline among its nodes. For each node that is ready or
//!   due it takes the core, reads frames, fires timers and handles
//!   control events (crash, recover, shutdown, fault transitions), then
//!   parks the node again; on the channel transport frames arrive in the
//!   inbox.
//!
//! Before a lock call steps its request it serves what already reached
//! the node — ready sockets, with a zero-timeout wait on the node's
//! poller, and queued inbox events — so a REQUEST or a crash that arrived
//! first is handled before the call's seal. A caller leaving the core
//! rings the bell only if it left the node with a deadline earlier than
//! the one the node is parked until (or shut the node down): an
//! uncontended lock cycle wakes nobody.
//!
//! A grant for a waiter that sleeps is written into its slot only after
//! the core is unlocked. On a busy CPU a woken waiter preempts the thread
//! that woke it; woken under the lock, it would only block on the same
//! core. A waiter that is awake (a caller granted its own request) gets
//! its reply at once, which wakes nobody.
//!
//! A frame a node addresses to itself never reaches the network: it is
//! delivered before the core is unlocked, in send order.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
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

/// Poller token of the inbox bell; [`Inbound`] owns the tokens above it,
/// up to [`Outbound::FIRST_TOKEN`].
const BELL: u64 = 0;

/// Ready descriptors taken per poller wait; more stay ready for the next.
const POLL_EVENTS: usize = 64;

/// How long a shard must go without a request received or the token
/// sent or received before lock callers fire its due timers themselves.
/// A caller that seals and grants inline never blocks, so on a busy CPU
/// it can keep the CPU for whole scheduler slices (milliseconds) while a
/// contending node's client, preempted between its PRIVILEGE and its next
/// REQUEST, waits to run; this quiet period outlasts such a wait. Until
/// it passes, the node's reactor fires the shard's timers, so a contended
/// grant costs its caller a wait and the contender gets the CPU.
const QUIET: Duration = Duration::from_millis(20);

/// What a lock call eventually hears back: the CS generation of its
/// grant, or a typed refusal.
pub(crate) type GrantReply = Result<u64, LockError>;

/// Events posted to a node's inbox: control events, and frames of the
/// channel transport.
#[derive(Debug)]
pub(crate) enum NodeEvent {
    /// An encoded protocol frame arrived. The owning shard rides inside
    /// the frame header and is recovered at decode time.
    Wire { from: NodeId, frame: Bytes },
    /// The cluster's fault panel changed: retry the links whose frames
    /// wait behind a blocked link.
    LinksChanged,
    /// Simulated process crash (volatile state lost on every shard).
    Crash,
    /// Restart after a crash.
    Recover,
    /// Stop the node: its reactor stops driving it and later lock calls
    /// fail.
    Shutdown,
}

/// Where a lock call waits for its reply. Each thread owns one and reuses
/// it for every call it makes. A waiter entry holds the slot from the
/// moment the call queues until its reply is decided or the call withdraws
/// the entry on timeout, both under the core lock; a reply for a sleeping
/// owner is written once the core is unlocked. A call that finds its
/// entry gone waits for that write, so a slot is in at most one queue at
/// a time and a late grant can never land in a later call's slot.
#[derive(Default)]
struct GrantSlot {
    state: std::sync::Mutex<SlotState>,
    filled: Condvar,
}

#[derive(Default)]
struct SlotState {
    reply: Option<GrantReply>,
    /// The owner sleeps on `filled`: a reply must wake it. A reply
    /// written before the owner waits (its own grant) costs no wakeup.
    sleeping: bool,
}

impl GrantSlot {
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fill(&self, reply: GrantReply) {
        let mut state = self.lock();
        state.reply = Some(reply);
        if state.sleeping {
            self.filled.notify_one();
        }
    }

    /// Writes `reply` if the owner is awake: it takes the reply before it
    /// would sleep, so the write wakes nobody. Hands `reply` back if the
    /// owner sleeps, for a [`GrantSlot::fill`] once the core is unlocked.
    fn fill_awake(&self, reply: GrantReply) -> Result<(), GrantReply> {
        let mut state = self.lock();
        if state.sleeping {
            return Err(reply);
        }
        state.reply = Some(reply);
        Ok(())
    }

    /// Waits until a reply is written or `deadline` passes (`None`: no
    /// deadline), and takes the reply.
    fn wait(&self, deadline: Option<Instant>) -> Option<GrantReply> {
        let mut state = self.lock();
        loop {
            if let Some(reply) = state.reply.take() {
                return Some(reply);
            }
            let left = match deadline {
                None => None,
                Some(at) => match at.saturating_duration_since(Instant::now()) {
                    left if left.is_zero() => return None,
                    left => Some(left),
                },
            };
            state.sleeping = true;
            state = match left {
                None => self
                    .filled
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    self.filled
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            state.sleeping = false;
        }
    }
}

thread_local! {
    /// The calling thread's [`GrantSlot`].
    static GRANT_SLOT: Arc<GrantSlot> = Arc::default();
}

/// Unlocks `core`, then wakes the sleeping waiters its steps replied to.
fn unlock(mut core: MutexGuard<'_, NodeCore>) {
    let fills = std::mem::take(&mut core.fills);
    drop(core);
    for (slot, reply) in fills {
        slot.fill(reply);
    }
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
    /// Queued lock calls, each with its grant slot and the time it queued
    /// (for the CS-grant latency histogram). Waiters survive a crash: on
    /// recovery the node re-requests the lock on their behalf.
    waiters: VecDeque<(Arc<GrantSlot>, Instant)>,
    /// Open `request_collection` span while this shard's arbiter window
    /// collects requests (closed by the Q-list seal).
    collection_span: Option<SpanGuard>,
    /// Open `forwarding_phase` span while this shard relays late requests
    /// to its successor.
    forwarding_span: Option<SpanGuard>,
    engaged: bool,
    in_cs: bool,
    /// When a request last arrived or the token last left or arrived.
    contended_at: Option<Instant>,
    /// CS generation: bumped on every grant and on every crash, so a
    /// release from a guard granted in an earlier era is recognized as
    /// stale and ignored.
    cs_gen: u64,
}

impl ShardState {
    /// Whether lock callers fire this shard's due timers themselves: no
    /// other node has wanted its token for [`QUIET`].
    fn inline(&self) -> bool {
        self.contended_at.is_none_or(|at| at.elapsed() >= QUIET)
    }

    fn new(protocol: ArbiterNode) -> Self {
        ShardState {
            protocol,
            waiters: VecDeque::new(),
            collection_span: None,
            forwarding_span: None,
            engaged: false,
            in_cs: false,
            contended_at: None,
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
    /// Loopback TCP: this node's listener and every node's address (by
    /// id).
    Tcp {
        listener: TcpListener,
        peers: Vec<SocketAddr>,
    },
}

/// A node's transport, as its core runs it.
enum Net {
    Channel(Arc<ChannelTransport>),
    /// Both halves of the node's TCP endpoint, served through its poller.
    Tcp {
        inbound: Inbound,
        outbound: Outbound,
    },
    /// Shut down: every socket is closed and frames are dropped.
    Closed,
}

impl Net {
    /// The earliest pending connect, stall, backoff or accept deadline.
    fn resume_at(&self) -> Option<Instant> {
        let Net::Tcp { inbound, outbound } = self else {
            return None;
        };
        inbound
            .resume_at()
            .into_iter()
            .chain(outbound.resume_at())
            .min()
    }

    /// Acts on every such deadline that has passed by `now`.
    fn resume_due(&mut self, poller: &Poller, now: Instant) {
        let Net::Tcp { inbound, outbound } = self else {
            return;
        };
        if inbound.resume_at().is_some_and(|at| at <= now) {
            inbound.resume(poller);
        }
        if outbound.resume_at().is_some_and(|at| at <= now) {
            outbound.resume(poller);
        }
    }
}

/// What the node's reactor published about the node.
#[derive(Clone, Copy)]
enum LoopState {
    /// Being driven, or about to be: the reactor looks at every deadline
    /// before it parks the node again.
    Running,
    /// Parked until this deadline (`None`: until its poller reports).
    Parked(Option<Instant>),
    /// Shut down: no reactor drives the node any more.
    Closed,
}

/// One node of the cluster, shared by its reactor and every handle that
/// locks through it.
pub(crate) struct Node {
    core: Mutex<NodeCore>,
    poller: Arc<Poller>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").finish_non_exhaustive()
    }
}

impl Node {
    /// A node running `shards`, fed by `inbox`, sending and receiving over
    /// `net` and consulting `panel` for injected loss. Every shard is
    /// started; a [`Reactor`] drives the node.
    ///
    /// # Errors
    ///
    /// Creating the epoll instance or registering the inbox bell or the
    /// listener with it (the descriptor limit, in practice).
    pub(crate) fn new(
        shards: Vec<ArbiterNode>,
        inbox: InboxRx,
        net: NodeNet,
        panel: FaultPanel,
        metrics: Arc<ClusterMetrics>,
    ) -> std::io::Result<Self> {
        assert!(!shards.is_empty(), "a node runs at least one shard");
        let id = shards[0].id();
        let n = shards[0].num_nodes();
        let k = shards.len();
        let obs = metrics.obs().clone();
        let hot = HotObs::new(&obs);
        let poller = Arc::new(Poller::new()?);
        poller.register(inbox.bell(), BELL, Interest::READABLE.edge())?;
        let net = match net {
            NodeNet::Channel(transport) => Net::Channel(transport),
            NodeNet::Tcp { listener, peers } => Net::Tcp {
                inbound: Inbound::new(listener, &poller)?,
                outbound: Outbound::new(id, peers, &obs, panel.clone()),
            },
        };
        let mut core = NodeCore {
            id,
            n,
            shards: shards.into_iter().map(ShardState::new).collect(),
            timers: TimerTable::new(k),
            inbox,
            incoming: VecDeque::new(),
            poller: Arc::clone(&poller),
            events: Events::with_capacity(POLL_EVENTS),
            net,
            panel,
            frames: VecDeque::new(),
            backlog: VecDeque::new(),
            fills: Vec::new(),
            metrics,
            obs,
            hot,
            alive: true,
            closed: false,
            state: LoopState::Running,
        };
        for s in 0..k {
            core.dispatch(ShardId(s as u16), Input::Start);
        }
        Ok(Node {
            core: Mutex::new(core),
            poller,
        })
    }

    /// One reactor visit, to a node whose poller was reported or whose
    /// deadline passed: serves the ready sockets and the inbox, fires what
    /// fell due and parks the node again. Returns the node's new state,
    /// [`LoopState::Parked`] or [`LoopState::Closed`].
    fn drive(&self) -> LoopState {
        let mut core = self.core.lock();
        core.inbox.unpark();
        // A bell among the ready tokens was meant for this reactor, which
        // is serving the node now: nothing to hand on.
        core.poll_ready();
        let state = loop {
            core.serve_inbox();
            if core.closed {
                break LoopState::Closed;
            }
            let deadline = core.settle();
            if core.inbox.park() {
                break LoopState::Parked(deadline);
            }
        };
        core.state = state;
        unlock(core);
        state
    }

    /// Requests the lock on `shard` and waits up to `timeout` (`None`: for
    /// ever) for the grant, returning its CS generation. Runs the
    /// request on the calling thread; see the [module docs](self).
    pub(crate) fn acquire(&self, shard: ShardId, timeout: Option<Duration>) -> GrantReply {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        GRANT_SLOT.with(|slot| {
            let mut core = self.core.lock();
            // What reached the node before this call is handled before
            // the call's seal.
            if matches!(core.net, Net::Tcp { .. }) && core.poll_ready() {
                // The wakeup was meant for the node's reactor: hand it on.
                core.inbox.ring();
            }
            core.serve_inbox();
            let queued = core.enqueue(shard, slot);
            core.leave(shard);
            unlock(core);
            queued?;
            if let Some(reply) = slot.wait(deadline) {
                return reply;
            }
            let mut core = self.core.lock();
            let withdrawn = core.withdraw(shard, slot);
            core.leave(shard);
            unlock(core);
            if withdrawn {
                Err(LockError::Timeout)
            } else {
                // The reply was decided between the timeout and the
                // withdrawal, and is written once its core is unlocked.
                slot.wait(None)
                    .expect("a wait without deadline ends with a reply")
            }
        })
    }

    /// Ends the critical section on `shard` granted under generation
    /// `gen`, on the calling thread. A stale generation (the node crashed
    /// since the grant) releases nothing.
    pub(crate) fn release(&self, shard: ShardId, gen: u64) {
        let mut core = self.core.lock();
        // A crash posted before the release makes the release stale.
        core.serve_inbox();
        core.release(shard, gen);
        core.leave(shard);
        unlock(core);
    }
}

/// How many reactor threads drive a cluster of `n` nodes: one per CPU
/// this process may run on, and no more than there are nodes.
pub(crate) fn reactor_count(n: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    n.min(cpus)
}

/// A thread driving a share of a cluster's nodes. It waits on an epoll
/// instance of its own, in which each of its nodes' pollers is registered
/// level-triggered under the node's index in [`Reactor::nodes`]: one
/// wakeup covers every node that is ready.
pub(crate) struct Reactor {
    epoll: Poller,
    nodes: Vec<Arc<Node>>,
}

impl Reactor {
    /// A reactor driving `nodes`.
    ///
    /// # Errors
    ///
    /// Creating its epoll instance or registering a node's poller with it
    /// (the descriptor limit, in practice).
    pub(crate) fn new(nodes: Vec<Arc<Node>>) -> std::io::Result<Self> {
        let epoll = Poller::new()?;
        for (i, node) in nodes.iter().enumerate() {
            epoll.register(&*node.poller, i as u64, Interest::READABLE)?;
        }
        Ok(Reactor { epoll, nodes })
    }

    /// The reactor thread: drives every node once, then waits until a
    /// node's poller is ready or the earliest deadline among its nodes
    /// passes, and drives exactly those nodes, until every node has shut
    /// down. A node that is neither ready nor due is left parked: its core
    /// stays free for its lock callers.
    pub(crate) fn run(self) {
        let mut ready = Events::with_capacity(POLL_EVENTS);
        let mut states = vec![LoopState::Running; self.nodes.len()];
        let mut visit: Vec<usize> = (0..self.nodes.len()).collect();
        loop {
            for &i in &visit {
                states[i] = self.nodes[i].drive();
                if matches!(states[i], LoopState::Closed) {
                    // Lock handles keep the node's poller open.
                    let _ = self.epoll.deregister(&*self.nodes[i].poller);
                }
            }
            if states.iter().all(|s| matches!(s, LoopState::Closed)) {
                return;
            }
            let deadline = states
                .iter()
                .filter_map(|s| match s {
                    LoopState::Parked(at) => *at,
                    _ => None,
                })
                .min();
            let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            self.epoll
                .wait(&mut ready, timeout)
                .expect("waiting on the reactor's own epoll instance");
            let now = Instant::now();
            visit.clear();
            visit.extend(ready.tokens().map(|token| token as usize));
            for (i, state) in states.iter().enumerate() {
                if matches!(state, LoopState::Parked(Some(at)) if *at <= now) && !visit.contains(&i)
                {
                    visit.push(i);
                }
            }
        }
    }
}

/// A node's mutable runtime state: everything a step of one of its
/// shards reads or writes. Lives in [`Node::core`].
struct NodeCore {
    id: NodeId,
    n: usize,
    shards: Vec<ShardState>,
    timers: TimerTable,
    inbox: InboxRx,
    /// Inbox events taken and not yet handled (kept for its capacity).
    incoming: VecDeque<NodeEvent>,
    poller: Arc<Poller>,
    /// Zero-timeout waits on the node's poller land here.
    events: Events,
    net: Net,
    /// Rolls injected loss for frames this node sends itself.
    panel: FaultPanel,
    /// Frames read from the sockets or sent to this node itself, not yet
    /// delivered.
    frames: VecDeque<(NodeId, Bytes)>,
    /// Grants whose waiter was gone (withdrawn on timeout) and that are
    /// released as soon as the step that made them is done: `(shard,
    /// generation)`.
    backlog: VecDeque<(ShardId, u64)>,
    /// Replies for waiters that sleep, written once the core is unlocked
    /// (see [`unlock`]).
    fills: Vec<(Arc<GrantSlot>, GrantReply)>,
    metrics: Arc<ClusterMetrics>,
    obs: Obs,
    hot: HotObs,
    alive: bool,
    closed: bool,
    state: LoopState,
}

impl NodeCore {
    /// Takes what the node's poller reports now: reads the ready sockets
    /// and writes out the ready outbound ones, and delivers the frames
    /// read. Returns whether the inbox bell was among the ready tokens
    /// (the wait consumed its edge).
    ///
    /// A token may be stale (another thread served the socket since it
    /// became ready); serving it then finds nothing to do.
    fn poll_ready(&mut self) -> bool {
        let ready = self
            .poller
            .wait(&mut self.events, Some(Duration::ZERO))
            .expect("polling the node's own epoll instance");
        if ready == 0 {
            return false;
        }
        let mut bell = false;
        for token in self.events.tokens() {
            match &mut self.net {
                _ if token == BELL => bell = true,
                Net::Tcp { outbound, .. } if token >= Outbound::FIRST_TOKEN => {
                    outbound.ready(&self.poller, token);
                }
                Net::Tcp { inbound, .. } => inbound.ready(&self.poller, token, &mut self.frames),
                Net::Channel(_) | Net::Closed => {}
            }
        }
        self.deliver_frames();
        bell
    }

    /// Delivers queued frames in order until none is left: a delivery
    /// can queue a frame this node sends itself.
    fn deliver_frames(&mut self) {
        while let Some((from, frame)) = self.frames.pop_front() {
            self.deliver(from, frame);
        }
    }

    /// Handles every queued inbox event, in order.
    fn serve_inbox(&mut self) {
        self.inbox.take(&mut self.incoming, usize::MAX);
        while let Some(ev) = self.incoming.pop_front() {
            match ev {
                NodeEvent::Wire { from, frame } => self.deliver(from, frame),
                NodeEvent::LinksChanged => {
                    if let Net::Tcp { outbound, .. } = &mut self.net {
                        outbound.resume(&self.poller);
                    }
                }
                NodeEvent::Crash => self.crash(),
                NodeEvent::Recover => self.recover(),
                NodeEvent::Shutdown => self.shut_down(),
            }
            self.deliver_frames();
        }
    }

    /// Delivers the frames this node sent itself, releases the grants of
    /// vanished waiters and fires every due timer, earliest first, then
    /// acts on due transport deadlines. Returns the earliest deadline
    /// still pending.
    fn settle(&mut self) -> Option<Instant> {
        loop {
            if let Some((from, frame)) = self.frames.pop_front() {
                self.deliver(from, frame);
                continue;
            }
            if let Some((shard, gen)) = self.backlog.pop_front() {
                self.release(shard, gen);
                continue;
            }
            let now = Instant::now();
            match self.timers.earliest() {
                Some((slot, due)) if due <= now => {
                    let (shard, timer) = self.timers.take(slot);
                    if self.alive {
                        self.dispatch(shard, Input::Timer(timer));
                    }
                }
                timer => {
                    self.net.resume_due(&self.poller, now);
                    return timer
                        .map(|(_, due)| due)
                        .into_iter()
                        .chain(self.net.resume_at())
                        .min();
                }
            }
        }
    }

    /// Finishes a lock caller's visit to `shard`: delivers the frames the
    /// node sent itself, fires what fell due if the shard is quiet, and
    /// rings the bell if the node's reactor must look at it again.
    fn leave(&mut self, shard: ShardId) {
        self.deliver_frames();
        let next = if self
            .shards
            .get(shard.index())
            .is_some_and(ShardState::inline)
        {
            self.settle()
        } else {
            self.next_deadline()
        };
        self.wake_loop_before(next);
    }

    /// The earliest pending deadline, without acting on any: a grant
    /// waiting to be auto-released is due now.
    fn next_deadline(&self) -> Option<Instant> {
        if !self.backlog.is_empty() {
            return Some(Instant::now());
        }
        self.timers
            .earliest()
            .map(|(_, due)| due)
            .into_iter()
            .chain(self.net.resume_at())
            .min()
    }

    /// Rings the bell if the node is parked past `next` (the node's
    /// earliest deadline now), or the node was shut down.
    fn wake_loop_before(&mut self, next: Option<Instant>) {
        let LoopState::Parked(until) = self.state else {
            return;
        };
        let earlier = match (next, until) {
            (Some(next), Some(until)) => next < until,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if earlier || self.closed {
            self.state = LoopState::Running;
            self.inbox.ring();
        }
    }

    /// Queues a lock call on `shard` and requests the lock for it if the
    /// shard is idle.
    fn enqueue(&mut self, shard: ShardId, slot: &Arc<GrantSlot>) -> Result<(), LockError> {
        if self.closed || shard.index() >= self.shards.len() {
            return Err(LockError::ShuttingDown);
        }
        if !self.alive {
            // New demand on a crashed node fails fast; waiters queued
            // *before* the crash still survive it.
            self.hot.note(&self.metrics, "acquire_on_crashed_node");
            return Err(LockError::NodeDown);
        }
        self.metrics.cs_requested(shard);
        self.shards[shard.index()]
            .waiters
            .push_back((Arc::clone(slot), Instant::now()));
        self.pump_lock(shard);
        Ok(())
    }

    /// Takes a timed-out call's entry out of `shard`'s queue. False if it
    /// is no longer queued: its reply has been written.
    fn withdraw(&mut self, shard: ShardId, slot: &Arc<GrantSlot>) -> bool {
        let Some(st) = self.shards.get_mut(shard.index()) else {
            return false;
        };
        match st.waiters.iter().position(|(s, _)| Arc::ptr_eq(s, slot)) {
            Some(at) => {
                st.waiters.remove(at);
                true
            }
            None => false,
        }
    }

    fn release(&mut self, shard: ShardId, gen: u64) {
        if self.closed || shard.index() >= self.shards.len() {
            return;
        }
        let st = &mut self.shards[shard.index()];
        if gen != st.cs_gen {
            // A guard from before a crash (or an abandoned grant from an
            // earlier era): its critical section no longer exists, so
            // releasing would end somebody else's.
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

    /// Decodes one frame and steps its shard with it; dead-node traffic,
    /// corrupt frames and out-of-range shard ids are absorbed.
    fn deliver(&mut self, from: NodeId, frame: Bytes) {
        use tokq_protocol::api::ProtocolMessage;
        if !self.alive {
            return;
        }
        self.hot.wire_bytes_in.add(frame.len() as u64);
        match wire::decode(&frame) {
            Ok((shard, msg)) if shard.index() < self.shards.len() => {
                let (kind, slot) = (msg.kind(), kind_slot(&msg));
                if self.obs.enabled(T_NET, Level::Trace) {
                    self.obs.emit(
                        Event::new(T_NET, Level::Trace, "msg_recv")
                            .node(u64::from(self.id.0))
                            .shard(u64::from(shard.0))
                            .field("from", &from.0)
                            .field("kind", &kind)
                            .field("bytes", &(frame.len() as u64)),
                    );
                }
                let start = Instant::now();
                if matches!(
                    msg,
                    ArbiterMsg::Request { .. }
                        | ArbiterMsg::MonitorSubmit { .. }
                        | ArbiterMsg::Privilege(_)
                ) {
                    self.shards[shard.index()].contended_at = Some(start);
                }
                self.dispatch(shard, Input::Deliver { from, msg });
                let elapsed = start.elapsed();
                self.hot.handle_ns[slot]
                    .get_or_insert_with(|| self.obs.registry().histogram_with("handle_ns", kind))
                    .record_duration(elapsed);
            }
            Ok((shard, _)) => {
                // A frame for a shard this cluster does not run: drop it
                // like a lost message rather than panic.
                self.hot.note(&self.metrics, "wire_shard_out_of_range");
                if self.obs.enabled(T_NET, Level::Debug) {
                    self.obs.emit(
                        Event::new(T_NET, Level::Debug, "wire_shard_out_of_range")
                            .node(u64::from(self.id.0))
                            .shard(u64::from(shard.0))
                            .field("from", &from.0),
                    );
                }
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
            }
        }
    }

    fn crash(&mut self) {
        if !self.alive {
            return;
        }
        for s in 0..self.shards.len() {
            self.dispatch(ShardId(s as u16), Input::Crash);
        }
        self.alive = false;
        for st in &mut self.shards {
            st.in_cs = false;
            st.engaged = false;
            // Invalidate any outstanding guard: its release (or a grant
            // auto-released late) must not close a post-recovery
            // critical section.
            st.cs_gen += 1;
            // Waiters survive: their application threads are still
            // blocked on their grant slots, so the recovered node
            // re-requests on their behalf instead of stranding them.
            st.collection_span = None;
            st.forwarding_span = None;
        }
        self.timers.clear();
        self.backlog.clear();
        if self.obs.enabled(T_NODE, Level::Info) {
            self.obs
                .emit(Event::new(T_NODE, Level::Info, "crashed").node(u64::from(self.id.0)));
        }
    }

    fn recover(&mut self) {
        if self.alive {
            return;
        }
        self.alive = true;
        if self.obs.enabled(T_NODE, Level::Info) {
            self.obs
                .emit(Event::new(T_NODE, Level::Info, "recovered").node(u64::from(self.id.0)));
        }
        for s in 0..self.shards.len() {
            self.dispatch(ShardId(s as u16), Input::Recover);
        }
        for s in 0..self.shards.len() {
            let shard = ShardId(s as u16);
            if !self.shards[s].waiters.is_empty() {
                // Re-issue the lock request for waiters that survived the
                // crash, counted separately from fresh demand.
                self.metrics.cs_rerequested(shard);
                self.shards[s].engaged = true;
                self.dispatch(shard, Input::RequestCs);
            }
        }
    }

    /// Stops the node: closes the inbox and every socket, and fails every
    /// queued lock call.
    fn shut_down(&mut self) {
        self.closed = true;
        self.inbox.close();
        self.incoming.clear();
        self.net = Net::Closed;
        self.frames.clear();
        self.timers.clear();
        self.backlog.clear();
        for st in &mut self.shards {
            for (slot, _) in st.waiters.drain(..) {
                self.fills.push((slot, Err(LockError::ShuttingDown)));
            }
            st.collection_span = None;
            st.forwarding_span = None;
        }
    }

    /// Answers the waiter on `slot`. A waiter that sleeps is woken only
    /// once the core is unlocked: on a busy CPU it would preempt this
    /// thread and then block on the core this thread still holds.
    fn reply(&mut self, slot: Arc<GrantSlot>, reply: GrantReply) {
        if let Err(reply) = slot.fill_awake(reply) {
            self.fills.push((slot, reply));
        }
    }

    fn pump_lock(&mut self, shard: ShardId) {
        let st = &self.shards[shard.index()];
        if self.alive && !st.engaged && !st.in_cs && !st.waiters.is_empty() {
            self.shards[shard.index()].engaged = true;
            self.dispatch(shard, Input::RequestCs);
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
                        Some((slot, since)) => {
                            self.reply(slot, Ok(cs_gen));
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
                        // Every waiter gave up (timeout): release at once
                        // so the token moves on.
                        None => self.backlog.push_back((shard, cs_gen)),
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
        if let ArbiterMsg::Privilege(_) = msg {
            self.shards[shard.index()].contended_at = Some(Instant::now());
        }
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
            Net::Closed => {}
            // Delivered before the core is unlocked, unless injected loss
            // takes it as it would take a frame that leaves.
            _ if to == self.id => {
                if !self.panel.rolls_loss_drop() {
                    self.frames.push_back((to, frame));
                }
            }
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

    /// A frame a TCP node sends itself must not connect to its own
    /// listener: it is delivered from the frame queue, and a reply the
    /// delivery sends itself is delivered in the same drain.
    #[test]
    fn a_frame_to_the_node_itself_opens_no_connection_and_arrives_once() {
        use tokq_protocol::api::ProtocolFactory;
        use tokq_protocol::arbiter::ArbiterConfig;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let peers = vec![listener.local_addr().expect("bound address")];
        let metrics = ClusterMetrics::new();
        let (_tx, rx) = crate::inbox::inbox(metrics.bell_ring_counter()).expect("eventfd");
        let me = NodeId(0);
        let node = Node::new(
            vec![ArbiterConfig::fault_tolerant().build_shard(me, 1, 0)],
            rx,
            NodeNet::Tcp { listener, peers },
            FaultPanel::detached(1),
            Arc::clone(&metrics),
        )
        .expect("node");
        let mut guard = node.core.lock();
        let core = &mut *guard;
        core.transmit(ShardId(0), me, &ArbiterMsg::Probe);
        assert_eq!(core.frames.len(), 1, "queued for delivery, not sent");
        core.deliver_frames();
        let registry = metrics.obs().registry();
        for kind in ["PROBE", "PROBE-ACK"] {
            let handled = registry.histogram_with("handle_ns", kind).summary().count;
            assert_eq!(handled, 1, "{kind} delivered {handled} times");
            assert_eq!(metrics.by_kind().get(kind), Some(&1), "{kind} counted once");
        }
        let Net::Tcp { outbound, .. } = &core.net else {
            panic!("a TCP node");
        };
        assert_eq!(outbound.pending_frames(), 0, "nothing waits for a link");
        assert_eq!(outbound.resume_at(), None, "no connect in progress");
        let ready = core
            .poller
            .wait(&mut core.events, Some(Duration::ZERO))
            .expect("poll");
        assert_eq!(ready, 0, "nothing connected to the node's listener");
        assert_eq!(registry.counter("tcp_connects").get(), 0);
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
