//! A node of the runtime: one [`ArbiterNode`] state machine *per shard*,
//! driven with real messages, real timers and application lock calls.
//!
//! A node's mutable state — its shards and their waiters, its timers, its
//! transport and its metric handles — lives in one [`NodeCore`] behind a
//! mutex, and two kinds of thread drive it:
//!
//! * **Lock callers.** [`Node::acquire`] and [`Node::release`] lock the
//!   core and step `RequestCs` / `CsDone` on the calling thread, executing
//!   what the step asks for themselves: frames go into the node's links
//!   (or peers' inboxes) from the calling thread. On a shard no other node
//!   has wanted for [`QUIET`], the caller also fires the timers that fell
//!   due, so with no collection window the seal and the grant happen
//!   inside the call and a caller granted its own request returns without
//!   blocking. A caller whose grant needs anything else waits on its
//!   thread's [`GrantSlot`], and whichever thread steps the grant writes
//!   it there.
//! * **A reactor.** A cluster runs one [`Reactor`] thread per CPU, at most
//!   one per node; node `i` belongs to reactor `i mod P`. Each reactor
//!   owns one [`Poller`] that its nodes share: every node registers its
//!   inbox bell and, on the TCP transport, every socket it has (its
//!   listener, the connections it accepted, and its own outbound
//!   connection to each peer) there directly, under tokens tagged with
//!   the node's place in the reactor. The reactor waits there until a
//!   descriptor is ready or the earliest deadline among its nodes passes.
//!   For each node with ready tokens or a due deadline it takes the core,
//!   serves exactly the tokens its own wait returned (reads frames,
//!   writes out links that were waiting for writability), fires timers
//!   and handles control events (crash, recover, shutdown, fault
//!   transitions), then parks the node again; on the channel transport
//!   frames arrive in the inbox.
//!
//! A TCP node registers each socket a second time, untagged, in a poller
//! of its own that nobody waits on but its lock callers. Before a lock
//! call steps its request it serves what already reached the node: one
//! zero-timeout wait on the node's own poller, whose every token it
//! serves, then the queued inbox events. So a REQUEST or a crash that
//! arrived first is handled before the call's seal, however many
//! descriptors of other nodes are ready in the reactor's poller. The bell
//! is in the reactor's poller only, level-triggered: the reactor resets it
//! when it visits the node for it, and no caller's poll can take it.
//!
//! A caller leaving the core rings the bell only if it left the node with
//! a deadline earlier than the one the node is parked until (or shut the
//! node down): an uncontended lock cycle wakes nobody.
//!
//! A grant for a waiter that sleeps is written into its slot only after
//! the core is unlocked, and the waiter is woken only after the slot's own
//! lock is dropped too. On a busy CPU a woken waiter preempts the thread
//! that woke it; woken under either lock, it would only block on it and
//! need a second wakeup. A waiter that is awake (a caller granted its own
//! request) gets its reply at once, which wakes nobody.
//!
//! Frames a visit sends to a peer over TCP are held on that peer's link
//! and leave when the visit unlocks the core: one write per peer per
//! visit, so a seal's NEW-ARBITER and PRIVILEGE to the same node share a
//! `send`. Frames that arrive are decoded straight from the socket's read
//! buffer.
//!
//! A frame a node addresses to itself never reaches the network: it is
//! delivered before the core is unlocked, in send order.
//!
//! A visit to the core (a caller's acquire, release or timeout withdrawal,
//! or a reactor's [`Node::drive`]) reads the clock once, when it takes the
//! core: every deadline, waiter timestamp, [`QUIET`] check, `cs_grant`
//! wait and phase span of the visit uses that *visit clock*, so a grant
//! made in its request's visit records a `cs_grant` wait of 0. Only
//! `handle_ns` times a delivered frame's step with two reads of its own.
//! Nor does a visit allocate once warm: steps append to one reused action
//! buffer ([`ArbiterNode::step_into`]), timers live in a preallocated
//! [`TimerTable`], and the phase spans are timestamps recorded into
//! cached histograms.

use std::cell::Cell;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use tokq_obs::{Counter, Event, Histogram, Level, Obs};
use tokq_protocol::api::Protocol;
use tokq_protocol::arbiter::{ArbiterMsg, ArbiterNode, ArbiterTimer};
use tokq_protocol::event::{Action, Input, Note};
use tokq_protocol::types::NodeId;
use tokq_sys::{Events, Interest, Poller};

use crate::fault::FaultPanel;
use crate::inbox::InboxRx;
use crate::metrics::ClusterMetrics;
use crate::service::{LockError, ShardId};
use crate::tcp::{Inbound, Mirror, Outbound};
use crate::transport::{ChannelTransport, Envelope};
use crate::wire::{self, WireError};

/// Trace target for protocol-level observations (notes, phases).
const T_ARBITER: &str = "arbiter";
/// Trace target for node lifecycle and lock servicing.
const T_NODE: &str = "node";
/// Trace target for per-message wire traffic.
const T_NET: &str = "net";

/// A node's own token of its inbox bell; [`Inbound`] owns the tokens
/// above it, up to [`Outbound::FIRST_TOKEN`].
const BELL: u64 = 0;

/// A token in a reactor's shared poller is a node's own token with the
/// node's place in the reactor above this bit.
const NODE_SHIFT: u32 = 48;

/// The bits of a shared-poller token that hold the node's own token.
const OWN_TOKEN: u64 = (1 << NODE_SHIFT) - 1;

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

    /// Writes `reply` and wakes the owner if it sleeps, once the slot's
    /// lock is dropped: woken under it, the owner would block on it.
    fn fill(&self, reply: GrantReply) {
        let sleeping = {
            let mut state = self.lock();
            state.reply = Some(reply);
            state.sleeping
        };
        if sleeping {
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

/// Replies for sleeping waiters, written once the core is unlocked.
type Fills = Vec<(Arc<GrantSlot>, GrantReply)>;

thread_local! {
    /// The calling thread's [`GrantSlot`].
    static GRANT_SLOT: Arc<GrantSlot> = Arc::default();
    /// An empty [`Fills`] buffer the thread swaps into a core it unlocks,
    /// so that neither buffer is dropped.
    static SPARE_FILLS: Cell<Fills> = const { Cell::new(Vec::new()) };
}

/// Sends the frames the visit held, unlocks `core`, then wakes the
/// sleeping waiters its steps replied to.
fn unlock(mut core: MutexGuard<'_, NodeCore>) {
    core.flush_held();
    if core.fills.is_empty() {
        return;
    }
    let mut fills = SPARE_FILLS.try_with(Cell::take).unwrap_or_default();
    std::mem::swap(&mut fills, &mut core.fills);
    drop(core);
    for (slot, reply) in fills.drain(..) {
        slot.fill(reply);
    }
    let _ = SPARE_FILLS.try_with(|spare| spare.set(fills));
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
///
/// The armed slots also sit in a binary min-heap ordered by (deadline,
/// slot), indexed by slot, so setting, cancelling or taking a timer costs
/// O(log armed) and finding the earliest costs O(1), however many shards
/// sit idle.
struct TimerTable {
    /// Deadline of every slot, `None` while unarmed.
    due: Vec<Option<Instant>>,
    /// The armed slots, heap-ordered by (deadline, slot).
    heap: Vec<u32>,
    /// Position of every armed slot in `heap`; [`UNARMED`] otherwise.
    at: Vec<u32>,
}

/// [`TimerTable::at`] of a slot that is not in the heap.
const UNARMED: u32 = u32::MAX;

impl TimerTable {
    fn new(shards: usize) -> Self {
        let slots = shards * TIMER_KINDS;
        TimerTable {
            due: vec![None; slots],
            heap: Vec::with_capacity(slots),
            at: vec![UNARMED; slots],
        }
    }

    fn slot(shard: ShardId, timer: ArbiterTimer) -> usize {
        shard.index() * TIMER_KINDS + timer_slot(timer)
    }

    fn set(&mut self, shard: ShardId, timer: ArbiterTimer, due: Instant) {
        let slot = Self::slot(shard, timer);
        self.due[slot] = Some(due);
        let pos = match self.at[slot] {
            UNARMED => {
                self.heap.push(slot as u32);
                self.heap.len() - 1
            }
            pos => pos as usize,
        };
        self.at[slot] = pos as u32;
        self.sift(pos);
    }

    fn cancel(&mut self, shard: ShardId, timer: ArbiterTimer) {
        self.disarm(Self::slot(shard, timer));
    }

    fn clear(&mut self) {
        for slot in self.heap.drain(..) {
            self.due[slot as usize] = None;
            self.at[slot as usize] = UNARMED;
        }
    }

    /// The slot and deadline of the earliest pending timer (the lowest
    /// slot among equal deadlines).
    fn earliest(&self) -> Option<(usize, Instant)> {
        let slot = *self.heap.first()? as usize;
        Some((slot, self.due[slot].expect("a slot in the heap is armed")))
    }

    /// Clears `slot` and names the timer it held.
    fn take(&mut self, slot: usize) -> (ShardId, ArbiterTimer) {
        self.disarm(slot);
        (
            ShardId((slot / TIMER_KINDS) as u16),
            TIMERS[slot % TIMER_KINDS],
        )
    }

    fn disarm(&mut self, slot: usize) {
        let pos = std::mem::replace(&mut self.at[slot], UNARMED);
        self.due[slot] = None;
        if pos == UNARMED {
            return;
        }
        let last = self.heap.pop().expect("an armed slot is in the heap");
        if (pos as usize) < self.heap.len() {
            self.heap[pos as usize] = last;
            self.at[last as usize] = pos;
            self.sift(pos as usize);
        }
    }

    /// Whether the slot at heap position `a` fires before the one at `b`:
    /// the earlier deadline, or the lower slot on a tie.
    fn less(&self, a: usize, b: usize) -> bool {
        let key = |pos: usize| (self.due[self.heap[pos] as usize], self.heap[pos]);
        key(a) < key(b)
    }

    /// Moves the slot at heap position `pos` up or down to its place.
    fn sift(&mut self, mut pos: usize) {
        while pos > 0 && self.less(pos, (pos - 1) / 2) {
            self.swap(pos, (pos - 1) / 2);
            pos = (pos - 1) / 2;
        }
        loop {
            let left = 2 * pos + 1;
            let right = left + 1;
            let mut least = pos;
            if left < self.heap.len() && self.less(left, least) {
                least = left;
            }
            if right < self.heap.len() && self.less(right, least) {
                least = right;
            }
            if least == pos {
                return;
            }
            self.swap(pos, least);
            pos = least;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.at[self.heap[a] as usize] = a as u32;
        self.at[self.heap[b] as usize] = b as u32;
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
    /// When each open [`Phase`] opened, by `Phase as usize`.
    phase_since: [Option<Instant>; PHASES],
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
    /// other node has wanted its token for [`QUIET`] by `now`.
    fn inline(&self, now: Instant) -> bool {
        self.contended_at
            .is_none_or(|at| now.saturating_duration_since(at) >= QUIET)
    }

    fn new(protocol: ArbiterNode) -> Self {
        ShardState {
            protocol,
            waiters: VecDeque::new(),
            phase_since: [None; PHASES],
            engaged: false,
            in_cs: false,
            contended_at: None,
            cs_gen: 0,
        }
    }
}

/// Number of [`Phase`]s.
const PHASES: usize = 2;

/// An arbiter phase timed as a span: its length goes into the
/// `span_ns/<name>` histogram, and with `arbiter` traced at Debug it
/// emits `span_open` and `span_close` events.
#[derive(Clone, Copy)]
enum Phase {
    /// From a shard's first collected request to its Q-list seal.
    Collection,
    /// While a former arbiter relays late requests to its successor.
    Forwarding,
}

impl Phase {
    const ALL: [Phase; PHASES] = [Phase::Collection, Phase::Forwarding];

    fn name(self) -> &'static str {
        match self {
            Phase::Collection => "request_collection",
            Phase::Forwarding => "forwarding_phase",
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
    /// `span_ns/<phase name>` by `Phase as usize`.
    phase_ns: [Option<Histogram>; PHASES],
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
            phase_ns: Default::default(),
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
    /// Both halves of the node's TCP endpoint, whose sockets are
    /// registered in `poller`, the node's own, and in its reactor's.
    Tcp {
        poller: Poller,
        inbound: Inbound,
        outbound: Box<Outbound>,
    },
    /// Shut down: every socket is closed and frames are dropped.
    Closed,
}

impl Net {
    /// The earliest pending connect, stall, backoff or accept deadline.
    fn resume_at(&self) -> Option<Instant> {
        let Net::Tcp {
            inbound, outbound, ..
        } = self
        else {
            return None;
        };
        inbound
            .resume_at()
            .into_iter()
            .chain(outbound.resume_at())
            .min()
    }

    /// Acts on every such deadline that has passed by `now`.
    fn resume_due(&mut self, now: Instant) {
        let Net::Tcp {
            poller,
            inbound,
            outbound,
        } = self
        else {
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
    /// Parked until this deadline (`None`: until one of its tokens is
    /// reported).
    Parked(Option<Instant>),
    /// Shut down: no reactor drives the node any more.
    Closed,
}

/// One node of the cluster, shared by its reactor and every handle that
/// locks through it.
pub(crate) struct Node {
    core: Mutex<NodeCore>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").finish_non_exhaustive()
    }
}

impl Node {
    /// A node running `shards`, fed by `inbox`, sending and receiving over
    /// `net` and consulting `panel` for injected loss. Every shard is
    /// started. The [`Reactor`] that drives the node waits on `reactor`,
    /// where the node is the reactor's node number `place`.
    ///
    /// # Errors
    ///
    /// Creating the node's own poller, or registering the inbox bell or
    /// the listener (the descriptor limit, in practice).
    pub(crate) fn new(
        shards: Vec<ArbiterNode>,
        inbox: InboxRx,
        net: NodeNet,
        panel: FaultPanel,
        metrics: Arc<ClusterMetrics>,
        reactor: Arc<Poller>,
        place: usize,
    ) -> std::io::Result<Self> {
        assert!(!shards.is_empty(), "a node runs at least one shard");
        let id = shards[0].id();
        let n = shards[0].num_nodes();
        let k = shards.len();
        let obs = metrics.obs().clone();
        let hot = HotObs::new(&obs);
        let tag = (place as u64) << NODE_SHIFT;
        reactor.register(inbox.bell(), tag | BELL, Interest::READABLE)?;
        let net = match net {
            NodeNet::Channel(transport) => Net::Channel(transport),
            NodeNet::Tcp { listener, peers } => {
                let poller = Poller::new()?;
                let mirror = Mirror::new(Arc::clone(&reactor), tag);
                Net::Tcp {
                    inbound: Inbound::new(listener, &poller, mirror.clone())?,
                    outbound: Box::new(
                        Outbound::new(id, peers, &obs, panel.clone()).mirrored(mirror),
                    ),
                    poller,
                }
            }
        };
        let mut core = NodeCore {
            id,
            n,
            shards: shards.into_iter().map(ShardState::new).collect(),
            timers: TimerTable::new(k),
            inbox,
            incoming: VecDeque::new(),
            reactor,
            events: Events::with_capacity(POLL_EVENTS),
            net,
            panel,
            frames: VecDeque::new(),
            backlog: VecDeque::new(),
            fills: Vec::new(),
            actions: Vec::new(),
            encoded: Vec::new(),
            now: Instant::now(),
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
        })
    }

    /// Takes the node's core for a visit and reads the visit clock: every
    /// deadline, timestamp and span of the visit is taken from it.
    fn visit(&self) -> MutexGuard<'_, NodeCore> {
        let mut core = self.core.lock();
        core.now = Instant::now();
        core
    }

    /// One reactor visit, to a node whose `tokens` (its own tokens, which
    /// the reactor's wait reported) are ready or whose deadline passed:
    /// serves those tokens and the inbox, fires what fell due and parks
    /// the node again. Returns the node's new state, [`LoopState::Parked`]
    /// or [`LoopState::Closed`].
    fn drive(&self, tokens: impl Iterator<Item = u64>) -> LoopState {
        let mut core = self.visit();
        core.inbox.unpark();
        // Every ring so far is for this visit: it serves the inbox and
        // looks at every deadline before it parks the node.
        core.serve_tokens(tokens);
        let state = loop {
            core.serve_inbox();
            if core.closed {
                // The inbox outlives the node: stop watching its bell.
                let _ = core.reactor.deregister(core.inbox.bell());
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
        GRANT_SLOT.with(|slot| {
            let mut core = self.visit();
            let deadline = timeout.and_then(|t| core.now.checked_add(t));
            // What reached the node before this call is handled before
            // the call's seal.
            core.poll();
            core.serve_inbox();
            let queued = core.enqueue(shard, slot);
            core.leave(shard);
            unlock(core);
            queued?;
            if let Some(reply) = slot.wait(deadline) {
                return reply;
            }
            let mut core = self.visit();
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
        let mut core = self.visit();
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

/// A thread driving a share of a cluster's nodes. It waits on one poller
/// in which each of its nodes registered its bell and sockets directly,
/// under tokens tagged with the node's index in [`Reactor::nodes`]: one
/// wait covers every descriptor of every node, and a visit serves exactly
/// the tokens the wait returned.
pub(crate) struct Reactor {
    poller: Arc<Poller>,
    nodes: Vec<Arc<Node>>,
}

impl Reactor {
    /// A reactor driving `nodes`, each registered in `poller` under its
    /// index here (see [`Node::new`]).
    pub(crate) fn new(poller: Arc<Poller>, nodes: Vec<Arc<Node>>) -> Self {
        Reactor { poller, nodes }
    }

    /// The reactor thread: drives every node once, then waits until a
    /// node's descriptor is ready or the earliest deadline among its nodes
    /// passes, and drives exactly those nodes, until every node has shut
    /// down. A node that is neither ready nor due is left parked: its core
    /// stays free for its lock callers.
    pub(crate) fn run(self) {
        let mut ready = Events::with_capacity(POLL_EVENTS);
        let mut states = vec![LoopState::Running; self.nodes.len()];
        let mut visit: Vec<usize> = (0..self.nodes.len()).collect();
        loop {
            for &i in &visit {
                let own = ready
                    .tokens()
                    .filter(|&token| token >> NODE_SHIFT == i as u64)
                    .map(|token| token & OWN_TOKEN);
                states[i] = self.nodes[i].drive(own);
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
            self.poller
                .wait(&mut ready, timeout)
                .expect("waiting on the reactor's own epoll instance");
            let now = Instant::now();
            visit.clear();
            for token in ready.tokens() {
                let i = (token >> NODE_SHIFT) as usize;
                if !visit.contains(&i) {
                    visit.push(i);
                }
            }
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
    /// The poller of the node's reactor, shared with the reactor's other
    /// nodes.
    reactor: Arc<Poller>,
    /// A lock caller's zero-timeout waits on the node's own poller land
    /// here.
    events: Events,
    net: Net,
    /// Rolls injected loss for frames this node sends itself.
    panel: FaultPanel,
    /// Frames read from the sockets or sent to this node itself, decoded
    /// and not yet delivered.
    frames: VecDeque<Arrival>,
    /// Grants whose waiter was gone (withdrawn on timeout) and that are
    /// released as soon as the step that made them is done: `(shard,
    /// generation)`.
    backlog: VecDeque<(ShardId, u64)>,
    /// Replies for waiters that sleep, written once the core is unlocked
    /// (see [`unlock`]).
    fills: Fills,
    /// The actions of the step being executed (kept for its capacity).
    actions: Vec<Action<ArbiterMsg, ArbiterTimer>>,
    /// The frame being sent, encoded once for all its peers (kept for its
    /// capacity).
    encoded: Vec<u8>,
    /// The visit clock: read once when a thread takes the core (see
    /// [`Node::visit`]).
    now: Instant,
    metrics: Arc<ClusterMetrics>,
    obs: Obs,
    hot: HotObs,
    alive: bool,
    closed: bool,
    state: LoopState,
}

impl NodeCore {
    /// Serves `tokens`, this node's own tokens that the reactor's wait
    /// reported: resets a bell, reads the ready sockets and writes out the
    /// ready outbound ones, then delivers the frames read.
    ///
    /// A token may be stale (another thread served the socket since it
    /// became ready); serving it then finds nothing to do.
    fn serve_tokens(&mut self, tokens: impl Iterator<Item = u64>) {
        for token in tokens {
            if token == BELL {
                self.inbox.drain_bell();
            } else {
                Self::serve_socket(&mut self.net, &mut self.frames, token);
            }
        }
        self.deliver_frames();
    }

    /// A lock caller's look at what reached the node: one zero-timeout
    /// wait on the node's own poller, which holds this node's sockets
    /// only. Serves every token it reports and delivers the frames read.
    fn poll(&mut self) {
        let Net::Tcp { poller, .. } = &self.net else {
            return;
        };
        let ready = poller
            .wait(&mut self.events, Some(Duration::ZERO))
            .expect("polling the node's own epoll instance");
        if ready > 0 {
            for token in self.events.tokens() {
                Self::serve_socket(&mut self.net, &mut self.frames, token);
            }
            self.deliver_frames();
        }
    }

    /// Serves the socket of this node's own `token` on `net`: frames it
    /// reads are decoded into `frames`.
    fn serve_socket(net: &mut Net, frames: &mut VecDeque<Arrival>, token: u64) {
        match net {
            Net::Tcp {
                poller, outbound, ..
            } if token >= Outbound::FIRST_TOKEN => {
                outbound.ready(poller, token);
            }
            Net::Tcp {
                poller, inbound, ..
            } => inbound.ready(poller, token, &mut |from, frame| {
                frames.push_back(Arrival::decode(from, frame));
            }),
            Net::Channel(_) | Net::Closed => {}
        }
    }

    /// Sends the frames this visit held for its peers.
    fn flush_held(&mut self) {
        if let Net::Tcp {
            poller, outbound, ..
        } = &mut self.net
        {
            outbound.flush_held(poller);
        }
    }

    /// Delivers queued frames in order until none is left: a delivery
    /// can queue a frame this node sends itself.
    fn deliver_frames(&mut self) {
        while let Some(arrival) = self.frames.pop_front() {
            self.deliver(arrival);
        }
    }

    /// Handles every queued inbox event, in order.
    fn serve_inbox(&mut self) {
        self.inbox.take(&mut self.incoming, usize::MAX);
        while let Some(ev) = self.incoming.pop_front() {
            match ev {
                NodeEvent::Wire { from, frame } => self.deliver(Arrival::decode(from, &frame)),
                NodeEvent::LinksChanged => {
                    if let Net::Tcp {
                        poller, outbound, ..
                    } = &mut self.net
                    {
                        outbound.resume(poller);
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
            if let Some(arrival) = self.frames.pop_front() {
                self.deliver(arrival);
                continue;
            }
            if let Some((shard, gen)) = self.backlog.pop_front() {
                self.release(shard, gen);
                continue;
            }
            match self.timers.earliest() {
                Some((slot, due)) if due <= self.now => {
                    let (shard, timer) = self.timers.take(slot);
                    if self.alive {
                        self.dispatch(shard, Input::Timer(timer));
                    }
                }
                timer => {
                    self.net.resume_due(self.now);
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
            .is_some_and(|st| st.inline(self.now))
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
            return Some(self.now);
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
            .push_back((Arc::clone(slot), self.now));
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

    /// Steps the shard of one decoded frame with its message; dead-node
    /// traffic, corrupt frames and out-of-range shard ids are absorbed.
    fn deliver(&mut self, arrival: Arrival) {
        use tokq_protocol::api::ProtocolMessage;
        let Arrival { from, len, msg } = arrival;
        if !self.alive {
            return;
        }
        self.hot.wire_bytes_in.add(len as u64);
        match msg {
            Ok((shard, msg)) if shard.index() < self.shards.len() => {
                let (kind, slot) = (msg.kind(), kind_slot(&msg));
                if self.obs.enabled(T_NET, Level::Trace) {
                    self.obs.emit(
                        Event::new(T_NET, Level::Trace, "msg_recv")
                            .node(u64::from(self.id.0))
                            .shard(u64::from(shard.0))
                            .field("from", &from.0)
                            .field("kind", &kind)
                            .field("bytes", &(len as u64)),
                    );
                }
                if matches!(
                    msg,
                    ArbiterMsg::Request { .. }
                        | ArbiterMsg::MonitorSubmit { .. }
                        | ArbiterMsg::Privilege(_)
                ) {
                    self.shards[shard.index()].contended_at = Some(self.now);
                }
                let start = Instant::now();
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
        }
        self.close_phases();
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
        // Closing the sockets ends their registrations.
        self.net = Net::Closed;
        self.frames.clear();
        self.timers.clear();
        self.backlog.clear();
        for st in &mut self.shards {
            for (slot, _) in st.waiters.drain(..) {
                self.fills.push((slot, Err(LockError::ShuttingDown)));
            }
        }
        self.close_phases();
    }

    /// Opens `phase` on `shard` at the visit clock. One already open
    /// closes first.
    fn open_phase(&mut self, shard: ShardId, phase: Phase) {
        self.close_phase(shard, phase);
        self.shards[shard.index()].phase_since[phase as usize] = Some(self.now);
        if self.obs.enabled(T_ARBITER, Level::Debug) {
            self.obs.emit(
                Event::new(T_ARBITER, Level::Debug, "span_open")
                    .node(u64::from(self.id.0))
                    .shard(u64::from(shard.0))
                    .field("span", &phase.name()),
            );
        }
    }

    /// Closes `phase` on `shard` if it is open: records its length up to
    /// the visit clock.
    fn close_phase(&mut self, shard: ShardId, phase: Phase) {
        let Some(since) = self.shards[shard.index()].phase_since[phase as usize].take() else {
            return;
        };
        let elapsed = self.now.saturating_duration_since(since);
        self.hot.phase_ns[phase as usize]
            .get_or_insert_with(|| self.obs.registry().histogram_with("span_ns", phase.name()))
            .record_duration(elapsed);
        if self.obs.enabled(T_ARBITER, Level::Debug) {
            self.obs.emit(
                Event::new(T_ARBITER, Level::Debug, "span_close")
                    .node(u64::from(self.id.0))
                    .shard(u64::from(shard.0))
                    .field("span", &phase.name())
                    .field(
                        "dur_ns",
                        &(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64),
                    ),
            );
        }
    }

    /// Closes every open phase of every shard (a crash or shutdown ends
    /// them).
    fn close_phases(&mut self) {
        for s in 0..self.shards.len() {
            for phase in Phase::ALL {
                self.close_phase(ShardId(s as u16), phase);
            }
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
        let mut actions = std::mem::take(&mut self.actions);
        self.shards[shard.index()]
            .protocol
            .step_into(input, &mut actions);
        self.execute(shard, &mut actions);
        self.actions = actions;
    }

    /// Executes and drains `actions`, in order.
    fn execute(&mut self, shard: ShardId, actions: &mut Vec<Action<ArbiterMsg, ArbiterTimer>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    self.encode(shard, &msg);
                    self.transmit(shard, to, &msg, &mut None);
                }
                Action::Broadcast { msg, except } => {
                    // Encoded once; every peer gets the same frame.
                    self.encode(shard, &msg);
                    let mut shared = None;
                    for i in 0..self.n {
                        let to = NodeId::from_index(i);
                        if to != self.id && !except.contains(&to) {
                            self.transmit(shard, to, &msg, &mut shared);
                        }
                    }
                }
                Action::SetTimer { timer, after } => {
                    self.timers.set(shard, timer, self.now + after.into());
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
                            let waited = self.now.saturating_duration_since(since);
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
                    // Phase notes open and close the phases' spans.
                    match note {
                        Note::CollectionOpened => self.open_phase(shard, Phase::Collection),
                        Note::QListSealed { .. } | Note::SelfGrant => {
                            self.close_phase(shard, Phase::Collection);
                        }
                        Note::ForwardingOpened { .. } => self.open_phase(shard, Phase::Forwarding),
                        Note::ForwardingClosed => self.close_phase(shard, Phase::Forwarding),
                        _ => {}
                    }
                }
            }
        }
    }

    /// Encodes `msg` for `shard` into [`NodeCore::encoded`].
    fn encode(&mut self, shard: ShardId, msg: &ArbiterMsg) {
        self.encoded.clear();
        wire::encode_into(&mut self.encoded, shard, msg);
    }

    /// Sends `msg`, encoded in [`NodeCore::encoded`], to `to`. A frame
    /// for the channel transport is made once into `shared`, for every
    /// peer of a broadcast.
    fn transmit(
        &mut self,
        shard: ShardId,
        to: NodeId,
        msg: &ArbiterMsg,
        shared: &mut Option<Bytes>,
    ) {
        use tokq_protocol::api::ProtocolMessage;
        let kind = msg.kind();
        let len = self.encoded.len() as u64;
        if let ArbiterMsg::Privilege(_) = msg {
            self.shards[shard.index()].contended_at = Some(self.now);
        }
        let sent = self.hot.msg_sent[kind_slot(msg)]
            .get_or_insert_with(|| self.metrics.kind_counter(kind));
        self.metrics.message(shard, sent);
        self.hot.wire_bytes_out.add(len);
        if self.obs.enabled(T_NET, Level::Trace) {
            self.obs.emit(
                Event::new(T_NET, Level::Trace, "msg_sent")
                    .node(u64::from(self.id.0))
                    .shard(u64::from(shard.0))
                    .field("to", &to.0)
                    .field("kind", &kind)
                    .field("bytes", &len),
            );
        }
        match &mut self.net {
            Net::Closed => {}
            // Delivered before the core is unlocked, unless injected loss
            // takes it as it would take a frame that leaves.
            _ if to == self.id => {
                if !self.panel.rolls_loss_drop() {
                    self.frames.push_back(Arrival::decode(to, &self.encoded));
                }
            }
            Net::Channel(transport) => transport.send(Envelope {
                from: self.id,
                to,
                frame: shared
                    .get_or_insert_with(|| Bytes::copy_from_slice(&self.encoded))
                    .clone(),
            }),
            // Held on the peer's link until the visit unlocks the core.
            Net::Tcp { outbound, .. } => outbound.hold(to, &self.encoded),
        }
    }
}

/// A frame read from a socket or sent to the node itself, decoded, waiting
/// to be delivered.
struct Arrival {
    from: NodeId,
    /// Bytes of the encoded frame.
    len: usize,
    msg: Result<(ShardId, ArbiterMsg), WireError>,
}

impl Arrival {
    fn decode(from: NodeId, frame: &[u8]) -> Self {
        Arrival {
            from,
            len: frame.len(),
            msg: wire::decode(frame),
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
            Arc::new(Poller::new().expect("poller")),
            0,
        )
        .expect("node");
        let mut guard = node.core.lock();
        let core = &mut *guard;
        core.execute(
            ShardId(0),
            &mut vec![Action::Send {
                to: me,
                msg: ArbiterMsg::Probe,
            }],
        );
        assert_eq!(core.frames.len(), 1, "queued for delivery, not sent");
        core.deliver_frames();
        let registry = metrics.obs().registry();
        for kind in ["PROBE", "PROBE-ACK"] {
            let handled = registry.histogram_with("handle_ns", kind).summary().count;
            assert_eq!(handled, 1, "{kind} delivered {handled} times");
            assert_eq!(metrics.by_kind().get(kind), Some(&1), "{kind} counted once");
        }
        let Net::Tcp {
            poller, outbound, ..
        } = &core.net
        else {
            panic!("a TCP node");
        };
        assert_eq!(outbound.pending_frames(), 0, "nothing waits for a link");
        assert_eq!(outbound.resume_at(), None, "no connect in progress");
        let ready = poller
            .wait(&mut core.events, Some(Duration::ZERO))
            .expect("poll");
        assert_eq!(ready, 0, "nothing connected to the node's listener");
        assert_eq!(registry.counter("tcp_connects").get(), 0);
    }

    /// A lock caller's poll reports the node's own sockets only: with more
    /// rung bells of reactor-mates in the reactor's poller than one wait
    /// takes, a poll still accepts a peer's connection, and the next one
    /// reads and delivers the frame the peer sent on it.
    #[test]
    fn a_callers_poll_serves_its_own_sockets_past_every_mates_readiness() {
        use std::io::Write as _;
        use std::net::TcpStream;
        use tokq_protocol::api::ProtocolFactory;
        use tokq_protocol::arbiter::ArbiterConfig;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = listener.local_addr().expect("bound address");
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let peers = vec![addr, peer.local_addr().expect("bound address")];
        let metrics = ClusterMetrics::new();
        let (_tx, rx) = crate::inbox::inbox(metrics.bell_ring_counter()).expect("eventfd");
        let reactor = Arc::new(Poller::new().expect("poller"));
        // Bells of reactor-mates that no reactor visits, rung before the
        // node's own sockets become ready.
        let mates: Vec<tokq_sys::Waker> = (1..=2 * POLL_EVENTS as u64)
            .map(|place| {
                let bell = tokq_sys::Waker::new().expect("eventfd");
                reactor
                    .register(&bell, place << NODE_SHIFT | BELL, Interest::READABLE)
                    .expect("register a mate's bell");
                bell.wake().expect("ring");
                bell
            })
            .collect();
        let node = Node::new(
            vec![ArbiterConfig::fault_tolerant().build_shard(NodeId(0), 2, 0)],
            rx,
            NodeNet::Tcp { listener, peers },
            FaultPanel::detached(2),
            Arc::clone(&metrics),
            Arc::clone(&reactor),
            0,
        )
        .expect("node");
        let mut client = TcpStream::connect(addr).expect("connect to the node");
        let mut core = node.core.lock();
        core.poll();
        let payload = wire::encode(ShardId(0), &ArbiterMsg::Probe);
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&1u32.to_be_bytes());
        frame.extend_from_slice(&payload);
        client.write_all(&frame).expect("send a frame to the node");
        // Loopback delivers at once; the pause only makes that certain.
        std::thread::sleep(Duration::from_millis(20));
        core.poll();
        let handled = metrics
            .obs()
            .registry()
            .histogram_with("handle_ns", "PROBE")
            .summary()
            .count;
        assert_eq!(handled, 1, "the frame was read by the caller's poll");
        let mut all = Events::with_capacity(4 * POLL_EVENTS);
        let ready = reactor.wait(&mut all, Some(Duration::ZERO)).expect("wait");
        assert!(ready > POLL_EVENTS, "the mates' bells stay rung: {ready}");
        drop(core);
        drop(mates);
    }

    /// Node 0 of an `n`-node channel cluster running one shard under
    /// `cfg`, with the inboxes of nodes 1.. and the cluster's metrics.
    fn channel_node(
        n: usize,
        cfg: tokq_protocol::arbiter::ArbiterConfig,
    ) -> (Node, Vec<InboxRx>, Arc<ClusterMetrics>) {
        use crate::transport::NetOptions;
        use tokq_protocol::api::ProtocolFactory;
        let metrics = ClusterMetrics::new();
        let (txs, mut rxs): (Vec<_>, Vec<_>) = (0..n)
            .map(|_| crate::inbox::inbox(metrics.bell_ring_counter()).expect("eventfd"))
            .unzip();
        let panel = FaultPanel::detached(n);
        let transport =
            ChannelTransport::new(txs, NetOptions::instant(), metrics.obs(), panel.clone());
        let node = Node::new(
            vec![cfg.build_shard(NodeId(0), n, 0)],
            rxs.remove(0),
            NodeNet::Channel(Arc::new(transport)),
            panel,
            Arc::clone(&metrics),
            Arc::new(Poller::new().expect("poller")),
            0,
        )
        .expect("node");
        (node, rxs, metrics)
    }

    /// A crash or a shutdown ends every open phase, recording one sample
    /// each, as does a phase that opens again while open.
    #[test]
    fn crash_and_shutdown_close_open_phases_once() {
        use tokq_protocol::arbiter::ArbiterConfig;
        use tokq_protocol::types::TimeDelta;
        let cfg = ArbiterConfig::fault_tolerant().with_t_collect(TimeDelta::from_secs(1));
        let (node, _peers, metrics) = channel_node(2, cfg);
        let samples = |phase: Phase| {
            metrics
                .obs()
                .registry()
                .histogram_with("span_ns", phase.name())
                .summary()
                .count
        };
        let mut core = node.core.lock();
        // Node 0 is the initial arbiter: its own request opens a window.
        core.dispatch(ShardId(0), Input::RequestCs);
        core.open_phase(ShardId(0), Phase::Forwarding);
        core.open_phase(ShardId(0), Phase::Forwarding);
        assert_eq!(
            samples(Phase::Forwarding),
            1,
            "a reopened phase closes first"
        );
        assert_eq!(samples(Phase::Collection), 0, "the window is open");
        core.crash();
        assert_eq!(samples(Phase::Collection), 1);
        assert_eq!(samples(Phase::Forwarding), 2);
        core.crash();
        core.shut_down();
        assert_eq!(samples(Phase::Collection), 1, "nothing was open");
        for phase in Phase::ALL {
            core.open_phase(ShardId(0), phase);
        }
        core.shut_down();
        assert_eq!(samples(Phase::Collection), 2);
        assert_eq!(samples(Phase::Forwarding), 3);
    }

    /// A broadcast is encoded once: every peer gets the same frame, and
    /// each copy is counted as a message and in `wire_bytes_out`.
    #[test]
    fn a_broadcast_encodes_one_frame_for_every_peer() {
        const N: usize = 5;
        let (node, rxs, metrics) =
            channel_node(N, tokq_protocol::arbiter::ArbiterConfig::fault_tolerant());
        let me = NodeId(0);
        let sent_before = metrics.messages_total();
        let bytes_out = metrics.obs().registry().counter("wire_bytes_out");
        let bytes_before = bytes_out.get();
        let msg = ArbiterMsg::NewArbiter {
            arbiter: me,
            q: QList::new(),
            prev: NodeId(1),
            round: 7,
            counter: 0,
            epoch: 0,
            monitor: None,
        };
        let len = wire::encode(ShardId(0), &msg).len() as u64;
        node.core.lock().execute(
            ShardId(0),
            &mut vec![Action::Broadcast {
                msg,
                except: Vec::new(),
            }],
        );
        assert_eq!(metrics.messages_total() - sent_before, (N - 1) as u64);
        assert_eq!(
            metrics.by_kind().get("NEW-ARBITER"),
            Some(&((N - 1) as u64))
        );
        assert_eq!(bytes_out.get() - bytes_before, (N as u64 - 1) * len);
        let frames: Vec<Bytes> = rxs
            .iter()
            .map(|rx| {
                let mut got = VecDeque::new();
                rx.take(&mut got, 16);
                match got.pop_front() {
                    Some(NodeEvent::Wire { from, frame }) if got.is_empty() && from == me => frame,
                    other => panic!("one frame from node 0 per peer, got {other:?} + {got:?}"),
                }
            })
            .collect();
        assert_eq!(frames.len(), N - 1);
        for frame in &frames {
            assert_eq!(frame.len() as u64, len);
            assert_eq!(frame, &frames[0], "byte-identical frames");
            assert_eq!(frame.as_ptr(), frames[0].as_ptr(), "one shared buffer");
        }
    }

    /// One step of the [`TimerTable`] model test.
    #[derive(Debug, Clone)]
    enum TimerOp {
        Set(u16, usize, u64),
        Cancel(u16, usize),
        TakeEarliest,
        Take(usize),
        Clear,
    }

    const MODEL_SHARDS: u16 = 3;

    fn timer_op() -> impl proptest::strategy::Strategy<Value = TimerOp> {
        use proptest::prelude::*;
        let slots = usize::from(MODEL_SHARDS) * TIMER_KINDS;
        prop_oneof![
            (0..MODEL_SHARDS, 0..TIMER_KINDS, 0u64..8).prop_map(|(s, k, t)| TimerOp::Set(s, k, t)),
            (0..MODEL_SHARDS, 0..TIMER_KINDS, 0u64..8).prop_map(|(s, k, t)| TimerOp::Set(s, k, t)),
            (0..MODEL_SHARDS, 0..TIMER_KINDS).prop_map(|(s, k)| TimerOp::Cancel(s, k)),
            Just(TimerOp::TakeEarliest),
            (0..slots).prop_map(TimerOp::Take),
            Just(TimerOp::Clear),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Over random set/cancel/take/clear sequences across shards,
        /// `earliest` always names what a scan of every slot finds (the
        /// lowest slot among equal deadlines; deadlines collide often).
        #[test]
        fn timer_table_earliest_matches_a_full_scan(
            ops in proptest::collection::vec(timer_op(), 0..200),
        ) {
            let base = Instant::now();
            let mut table = TimerTable::new(usize::from(MODEL_SHARDS));
            let mut model: Vec<Option<Instant>> = vec![None; usize::from(MODEL_SHARDS) * TIMER_KINDS];
            let scan = |model: &[Option<Instant>]| {
                model
                    .iter()
                    .enumerate()
                    .filter_map(|(slot, due)| due.map(|due| (slot, due)))
                    .min_by_key(|&(_, due)| due)
            };
            for op in ops {
                match op {
                    TimerOp::Set(s, k, t) => {
                        let due = base + Duration::from_micros(t);
                        table.set(ShardId(s), TIMERS[k], due);
                        model[TimerTable::slot(ShardId(s), TIMERS[k])] = Some(due);
                    }
                    TimerOp::Cancel(s, k) => {
                        table.cancel(ShardId(s), TIMERS[k]);
                        model[TimerTable::slot(ShardId(s), TIMERS[k])] = None;
                    }
                    TimerOp::TakeEarliest => {
                        if let Some((slot, _)) = table.earliest() {
                            let named = table.take(slot);
                            proptest::prop_assert_eq!(TimerTable::slot(named.0, named.1), slot);
                            model[slot] = None;
                        }
                    }
                    TimerOp::Take(slot) => {
                        table.take(slot);
                        model[slot] = None;
                    }
                    TimerOp::Clear => {
                        table.clear();
                        model.fill(None);
                    }
                }
                proptest::prop_assert_eq!(table.earliest(), scan(&model));
                proptest::prop_assert_eq!(&table.due, &model);
                proptest::prop_assert_eq!(table.heap.len(), model.iter().flatten().count());
            }
        }
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
