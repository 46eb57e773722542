//! The per-node event loop: drives one [`ArbiterNode`] state machine *per
//! shard* with real messages, real timers, and application lock requests.
//!
//! A node owns `K` independent protocol instances (shards) but a single
//! inbox, a single thread, and a single transport. Incoming events are
//! drained in batches and bucketed by shard before dispatch, so a burst of
//! traffic on one shard is amortized into one pass instead of `K`
//! interleaved context switches; control events (crash/recover/shutdown)
//! act as batch barriers because they affect every shard at once.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use tokq_obs::{span, Counter, Event, Histogram, Level, Obs, SpanGuard};
use tokq_protocol::api::Protocol;
use tokq_protocol::arbiter::{ArbiterMsg, ArbiterNode, ArbiterTimer};
use tokq_protocol::event::{Action, Input, Note};
use tokq_protocol::types::NodeId;

use crate::metrics::ClusterMetrics;
use crate::service::{LockError, ShardId};
use crate::transport::{Envelope, Wire};
use crate::wire;

/// Trace target for protocol-level observations (notes, phases).
const T_ARBITER: &str = "arbiter";
/// Trace target for node lifecycle and lock servicing.
const T_NODE: &str = "node";
/// Trace target for per-message wire traffic.
const T_NET: &str = "net";

/// How many inbox events one drain pass may swallow before dispatching.
const BATCH: usize = 128;

/// What an [`NodeEvent::Acquire`] waiter eventually hears back: the CS
/// generation of its grant, or a typed refusal.
pub(crate) type GrantReply = Result<u64, LockError>;

/// Events consumed by a node thread.
#[derive(Debug)]
pub(crate) enum NodeEvent {
    /// An encoded protocol frame arrived. The owning shard rides inside
    /// the frame header and is recovered at decode time.
    Wire { from: NodeId, frame: bytes::Bytes },
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

struct PendingTimer {
    due: Instant,
    gen: u64,
    shard: ShardId,
    timer: ArbiterTimer,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.gen == other.gen && self.shard == other.shard
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.gen.cmp(&self.gen))
            .then_with(|| other.shard.cmp(&self.shard))
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

/// Registry handles recorded into on every frame or grant, looked up
/// once per node rather than once per use (each lookup read-locks the
/// registry and probes a hashed map).
struct HotObs {
    wire_bytes_in: Counter,
    wire_bytes_out: Counter,
    cs_grant: Histogram,
    /// `handle_ns/<kind>` by [`kind_slot`], registered on first use so
    /// the registry lists only the kinds this node actually handled.
    handle_ns: [Option<Histogram>; MSG_KINDS],
}

impl HotObs {
    fn new(obs: &Obs) -> Self {
        HotObs {
            wire_bytes_in: obs.registry().counter("wire_bytes_in"),
            wire_bytes_out: obs.registry().counter("wire_bytes_out"),
            cs_grant: obs.registry().histogram_with("span_ns", "cs_grant"),
            handle_ns: Default::default(),
        }
    }
}

pub(crate) struct NodeLoop {
    id: NodeId,
    shards: Vec<ShardState>,
    rx: Receiver<NodeEvent>,
    transport: Arc<dyn Wire>,
    metrics: Arc<ClusterMetrics>,
    obs: Obs,
    hot: HotObs,
    n: usize,

    timers: BinaryHeap<PendingTimer>,
    timer_gen: HashMap<(ShardId, ArbiterTimer), u64>,

    alive: bool,
    /// Internally generated events processed before external ones
    /// (e.g. auto-release when a grantee abandoned its request).
    backlog: VecDeque<NodeEvent>,
    /// Per-shard staging buffers for one drain pass. Persistent across
    /// passes so the (very hot) one-event-per-wakeup case costs no
    /// allocation once the deques have warmed up.
    buckets: Vec<VecDeque<ShardWork>>,
}

impl NodeLoop {
    pub(crate) fn new(
        shards: Vec<ArbiterNode>,
        rx: Receiver<NodeEvent>,
        transport: Arc<dyn Wire>,
        metrics: Arc<ClusterMetrics>,
    ) -> Self {
        assert!(!shards.is_empty(), "a node runs at least one shard");
        let id = shards[0].id();
        let n = shards[0].num_nodes();
        let k = shards.len();
        let obs = metrics.obs().clone();
        let hot = HotObs::new(&obs);
        NodeLoop {
            id,
            shards: shards.into_iter().map(ShardState::new).collect(),
            rx,
            transport,
            metrics,
            obs,
            hot,
            n,
            timers: BinaryHeap::new(),
            timer_gen: HashMap::new(),
            alive: true,
            backlog: VecDeque::new(),
            buckets: (0..k).map(|_| VecDeque::new()).collect(),
        }
    }

    pub(crate) fn run(mut self) {
        for s in 0..self.shards.len() {
            self.dispatch(ShardId(s as u16), Input::Start);
        }
        loop {
            if let Some(ev) = self.backlog.pop_front() {
                if self.handle(ev) {
                    return;
                }
                continue;
            }
            self.fire_due_timers();
            let wait = self
                .timers
                .peek()
                .map(|t| t.due.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(100));
            match self.rx.recv_timeout(wait) {
                Ok(ev) => {
                    if self.drain_from(ev) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Drains up to [`BATCH`] queued events starting from `first` into
    /// the per-shard staging buckets (preserving each shard's arrival
    /// order — cross-shard order is immaterial, the instances are
    /// independent), then dispatches one shard at a time. A control
    /// event ends the batch (it is a barrier across all shards).
    /// Returns `true` on shutdown.
    fn drain_from(&mut self, first: NodeEvent) -> bool {
        if first.is_control() {
            return self.handle(first);
        }
        self.stage(first);
        let mut drained = 1;
        let mut barrier = None;
        while drained < BATCH {
            match self.rx.try_recv() {
                Ok(ev) if ev.is_control() => {
                    barrier = Some(ev);
                    break;
                }
                Ok(ev) => {
                    self.stage(ev);
                    drained += 1;
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
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
                        self.metrics.note("wire_shard_out_of_range");
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
                        self.metrics.note("wire_decode_error");
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
                    self.metrics.note("acquire_on_crashed_node");
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
                    self.metrics.note("stale_release_ignored");
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
                    self.timer_gen.clear();
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

    fn fire_due_timers(&mut self) {
        loop {
            let now = Instant::now();
            let Some(top) = self.timers.peek() else {
                return;
            };
            if top.due > now {
                return;
            }
            let t = self.timers.pop().expect("peeked");
            let live = self
                .timer_gen
                .get(&(t.shard, t.timer))
                .is_some_and(|&g| g == t.gen);
            if live && self.alive {
                self.dispatch(t.shard, Input::Timer(t.timer));
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
                    let gen = self.timer_gen.entry((shard, timer)).or_insert(0);
                    *gen += 1;
                    self.timers.push(PendingTimer {
                        due: Instant::now() + after.into(),
                        gen: *gen,
                        shard,
                        timer,
                    });
                }
                Action::CancelTimer(timer) => {
                    *self.timer_gen.entry((shard, timer)).or_insert(0) += 1;
                }
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
                    self.metrics.note(note.label());
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

    fn transmit(&self, shard: ShardId, to: NodeId, msg: &ArbiterMsg) {
        use tokq_protocol::api::ProtocolMessage;
        let kind = msg.kind();
        self.metrics.message(shard, kind);
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
        self.transport.send(Envelope {
            from: self.id,
            to,
            frame,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
