//! The rotating-arbiter node state machine (paper §2.1, Figure 1).
//!
//! One `ArbiterNode` implements the *basic* algorithm; the starvation-free
//! variant (§4.1) and failure recovery (§6) are enabled through
//! [`ArbiterConfig`] and implemented in the sibling `monitor` and `recovery`
//! modules as additional `impl` blocks over the same state.

use std::collections::VecDeque;

use crate::api::Protocol;
use crate::arbiter::config::{ArbiterConfig, Fairness};
use crate::arbiter::messages::{ArbiterMsg, ArbiterTimer, Token};
use crate::arbiter::recovery::RecoveryState;
use crate::event::{Action, Input, Note};
use crate::qlist::{Entry, QList};
use crate::types::{NodeId, Priority, SeqNum};

/// Actions accumulated while processing one input.
pub(crate) type Outbox = Vec<Action<ArbiterMsg, ArbiterTimer>>;

/// Steady self-only seals after a streak reset that still seal normally
/// (NEW-ARBITER broadcast, fresh round) before self-grants go silent.
///
/// Two broadcasts match the default `miss_grace`: a requester whose
/// REQUEST was lost while the role changed hands sees itself missing
/// twice and retransmits before the arbiter stops announcing.
pub(crate) const SELF_GRANT_WARMUP: u32 = 2;

/// Announce cadence of a silent self-grant streak: every this-many-th
/// steady self-only seal seals normally and broadcasts NEW-ARBITER.
///
/// The announce keeps the paper's implicit acknowledgment (§6, "Lost
/// Request") and the previous arbiter's handover watch alive: a requester
/// whose REQUEST was lost during the streak is recovered after `miss_grace`
/// announces rather than by the coarse `request_retry` timeout.
pub const SELF_GRANT_ANNOUNCE_EVERY: u32 = 256;

/// A node running the Banerjee–Chrysanthis token-passing algorithm.
///
/// Construct via [`ArbiterConfig`] (which implements
/// [`crate::api::ProtocolFactory`]); drive via [`Protocol::step`].
///
/// # Examples
///
/// A single-node system grants its own request after one collection window:
///
/// ```
/// use tokq_protocol::api::{Protocol, ProtocolFactory};
/// use tokq_protocol::arbiter::{ArbiterConfig, ArbiterTimer};
/// use tokq_protocol::event::{Action, Input};
/// use tokq_protocol::types::NodeId;
///
/// let mut node = ArbiterConfig::basic().build(NodeId(0), 1);
/// node.step(Input::Start);
/// let actions = node.step(Input::RequestCs);
/// // A collection window opens for the arbiter's own request.
/// assert!(actions
///     .iter()
///     .any(|a| matches!(a, Action::SetTimer { timer: ArbiterTimer::CollectionEnd, .. })));
/// let actions = node.step(Input::Timer(ArbiterTimer::CollectionEnd));
/// assert!(actions.iter().any(|a| matches!(a, Action::EnterCs)));
/// ```
#[derive(Debug, Clone, Hash)]
pub struct ArbiterNode {
    pub(crate) id: NodeId,
    pub(crate) n: usize,
    pub(crate) cfg: ArbiterConfig,
    pub(crate) priority: Priority,

    pub(crate) alive: bool,
    /// Believed current arbiter.
    pub(crate) arbiter: NodeId,
    pub(crate) is_arbiter: bool,
    /// Requests collected while acting as arbiter (`q` in Figure 1).
    pub(crate) collect: QList,
    /// Whether a `CollectionEnd` timer is pending.
    pub(crate) window_armed: bool,
    /// Forwarding phase target, while active.
    pub(crate) forwarding_to: Option<NodeId>,
    pub(crate) token: Option<Token>,
    pub(crate) in_cs: bool,
    /// The application has an unserviced `RequestCs`.
    pub(crate) want_cs: bool,
    pub(crate) my_seq: SeqNum,
    /// Our outstanding request appeared in a NEW-ARBITER Q-list.
    pub(crate) waiting_confirmed: bool,
    /// Consecutive NEW-ARBITER broadcasts that did not schedule us.
    pub(crate) miss_count: u32,
    /// Highest NEW-ARBITER round observed; stale broadcasts are ignored.
    pub(crate) last_round: u64,
    /// `last_round` when our outstanding request was (re)issued; the coarse
    /// retry timeout only fires if no round progress happened since.
    pub(crate) round_at_request: u64,
    /// Consecutive retry-timeout firings with zero NEW-ARBITER progress;
    /// escalates to probing (and, unanswered, replacing) the arbiter.
    pub(crate) silent_retries: u32,
    /// Which node our outstanding request was last sent to. A NEW-ARBITER
    /// that omits us *and* names a different arbiter is the signature of a
    /// dropped request (ours went to a node that is no longer collecting);
    /// an omission by the same arbiter merely means we landed in the next
    /// batch.
    pub(crate) request_sent_to: Option<NodeId>,

    // --- starvation-free variant (paper §4.1) ---
    /// Current monitor node (may rotate, paper §5.1).
    pub(crate) monitor_cur: Option<NodeId>,
    /// Requests stored at the monitor awaiting the next token visit.
    pub(crate) monitor_store: QList,
    /// NEW-ARBITER counter (reset by the monitor).
    pub(crate) na_counter: u32,
    /// Moving window of observed Q-list sizes.
    pub(crate) q_window: VecDeque<u32>,

    // --- failure recovery (paper §6) ---
    /// Current token epoch this node knows of.
    pub(crate) epoch: u64,
    /// Cached copy of the token's `L` array from our last possession;
    /// seeds a regenerated token.
    pub(crate) lg_cache: Vec<SeqNum>,
    /// The Q-list from the most recent NEW-ARBITER (enquiry set).
    pub(crate) last_q_seen: QList,
    /// The previous arbiter named in the most recent NEW-ARBITER.
    pub(crate) prev_arbiter: NodeId,
    /// The successor arbiter this node is monitoring (paper §6: the
    /// previous arbiter watches the current one).
    pub(crate) watching: Option<NodeId>,
    /// The arbiter of an enquiry we answered that is still open; a token
    /// landing here meanwhile is self-reported to it.
    pub(crate) enquiring_arbiter: Option<NodeId>,
    pub(crate) recovery_state: RecoveryState,
    /// Token holder suspended by an ENQUIRY; must not pass until RESUME.
    pub(crate) suspended: bool,
    /// A token pass deferred because we were suspended.
    pub(crate) deferred_pass: bool,
    /// We held and released the token since the last NEW-ARBITER.
    pub(crate) had_token_recently: bool,

    // --- steady-state self-grant ---
    /// Consecutive steady self-only seals (see [`SELF_GRANT_WARMUP`] and
    /// [`SELF_GRANT_ANNOUNCE_EVERY`]).
    pub(crate) self_streak: u32,
    /// This node regenerated the token since it last became arbiter; its
    /// self-only seals take the normal path (monitor detour included).
    pub(crate) regenerated: bool,
}

impl ArbiterNode {
    /// Creates the node `id` of an `n`-node system under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `id` is out of range, or the configured initial
    /// arbiter / monitor node is out of range.
    pub fn new(id: NodeId, n: usize, cfg: ArbiterConfig) -> Self {
        assert!(n > 0, "system must have at least one node");
        assert!(id.index() < n, "node id {id} out of range for n={n}");
        assert!(
            cfg.initial_arbiter.index() < n,
            "initial arbiter out of range"
        );
        if let Some(m) = &cfg.monitor {
            assert!(m.monitor.index() < n, "monitor node out of range");
        }
        let priority = cfg.priority_of(id);
        let monitor_cur = cfg.monitor.as_ref().map(|m| m.monitor);
        let initial = cfg.initial_arbiter;
        ArbiterNode {
            id,
            n,
            arbiter: initial,
            priority,
            cfg,
            alive: false,
            is_arbiter: false,
            collect: QList::new(),
            window_armed: false,
            forwarding_to: None,
            token: None,
            in_cs: false,
            want_cs: false,
            my_seq: SeqNum::ZERO,
            waiting_confirmed: false,
            miss_count: 0,
            last_round: 0,
            round_at_request: 0,
            silent_retries: 0,
            request_sent_to: None,
            monitor_cur,
            monitor_store: QList::new(),
            na_counter: 0,
            q_window: VecDeque::new(),
            epoch: 0,
            lg_cache: vec![SeqNum::ZERO; n],
            last_q_seen: QList::new(),
            prev_arbiter: initial,
            watching: None,
            enquiring_arbiter: None,
            recovery_state: RecoveryState::Idle,
            suspended: false,
            deferred_pass: false,
            had_token_recently: false,
            self_streak: 0,
            regenerated: false,
        }
    }

    /// The believed current arbiter (for tests and diagnostics).
    pub fn believed_arbiter(&self) -> NodeId {
        self.arbiter
    }

    /// True while this node acts as arbiter.
    pub fn is_arbiter(&self) -> bool {
        self.is_arbiter
    }

    /// True while this node is inside its critical section.
    pub fn in_cs(&self) -> bool {
        self.in_cs
    }

    /// The current token epoch this node knows of.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    // ---------------------------------------------------------------
    // Input dispatch
    // ---------------------------------------------------------------

    fn on_start(&mut self, out: &mut Outbox) {
        self.alive = true;
        if self.id == self.cfg.initial_arbiter {
            self.is_arbiter = true;
            self.token = Some(Token::initial(self.n));
            out.push(Action::Note(Note::BecameArbiter));
            self.arm_arbiter_wait(out);
        }
    }

    fn on_request_cs(&mut self, out: &mut Outbox) {
        debug_assert!(!self.want_cs, "driver issued overlapping RequestCs");
        self.want_cs = true;
        self.my_seq = self.my_seq.next();
        self.miss_count = 0;
        self.silent_retries = 0;
        self.waiting_confirmed = false;
        if self.is_arbiter {
            // The arbiter's own request joins its queue without a message.
            self.collect.push_back(self.own_entry());
            self.maybe_arm_collection(out);
        } else {
            self.request_sent_to = Some(self.arbiter);
            out.push(Action::Send {
                to: self.arbiter,
                msg: ArbiterMsg::Request {
                    requester: self.id,
                    seq: self.my_seq,
                    priority: self.priority,
                    hops: 0,
                },
            });
            self.arm_request_retry(out);
        }
    }

    /// Arms the unscheduled-request retransmission timeout (paper §6:
    /// "appropriate timeouts may also be used to retransmit a request").
    /// This guards liveness in the rare race where a request reaches a
    /// node that is past its forwarding phase while no further NEW-ARBITER
    /// broadcast is ever produced to trigger miss-detection.
    fn arm_request_retry(&mut self, out: &mut Outbox) {
        if let Some(base) = self.cfg.request_retry {
            self.round_at_request = self.last_round;
            // This timeout exists only for the total-silence deadlock
            // (request lost and no NEW-ARBITER ever broadcast again), so
            // it is scaled far beyond one full token rotation — the
            // NEW-ARBITER miss detection owns every faster rescue. The
            // small per-node stagger avoids resonating with periodic
            // broadcasts under deterministic delays.
            let stagger = base * (u64::from(self.id.0) + 1) / (2 * self.n as u64);
            out.push(Action::SetTimer {
                timer: ArbiterTimer::RequestRetry,
                after: base * self.n as u64 + stagger,
            });
        }
    }

    /// The retry timeout fired with the request still unscheduled.
    fn on_request_retry(&mut self, out: &mut Outbox) {
        if !self.want_cs || self.waiting_confirmed || self.in_cs || self.is_arbiter {
            return;
        }
        if self.last_round > self.round_at_request {
            // NEW-ARBITER rounds advanced since we asked: the system is
            // live and the miss-detection path owns retransmission. Only a
            // total absence of broadcasts indicates the deadlock this
            // timeout exists for.
            self.silent_retries = 0;
            self.arm_request_retry(out);
            return;
        }
        self.silent_retries += 1;
        // Repeated retries into total silence suggest the arbiter itself
        // is dead (e.g. it crashed holding the token before its first
        // handover, so no previous arbiter is watching it). Probe it; an
        // unanswered probe triggers the §6 takeover. The threshold grows
        // with the node id so concurrent requesters escalate one at a
        // time, 20+ seconds apart, rather than racing each other.
        if self.cfg.recovery.is_some()
            && self.arbiter != self.id
            && self.silent_retries >= 2 + self.id.0
        {
            if self.watching.is_none() {
                self.watching = Some(self.arbiter);
            }
            out.push(Action::Send {
                to: self.arbiter,
                msg: ArbiterMsg::Probe,
            });
            if let Some(rc) = &self.cfg.recovery {
                out.push(Action::SetTimer {
                    timer: ArbiterTimer::ProbeTimeout,
                    after: rc.probe_timeout,
                });
            }
        }
        self.request_sent_to = Some(self.arbiter);
        out.push(Action::Send {
            to: self.arbiter,
            msg: ArbiterMsg::Request {
                requester: self.id,
                seq: self.my_seq,
                priority: self.priority,
                hops: 0,
            },
        });
        out.push(Action::Note(Note::RequestRetransmitted {
            requester: self.id,
            misses: self.miss_count,
        }));
        self.arm_request_retry(out);
    }

    pub(crate) fn own_entry(&self) -> Entry {
        Entry::with_priority(self.id, self.my_seq, self.priority)
    }

    fn on_request(
        &mut self,
        requester: NodeId,
        seq: SeqNum,
        priority: Priority,
        hops: u32,
        out: &mut Outbox,
    ) {
        if self.is_arbiter {
            // Starvation-free τ check: over-forwarded requests are dropped
            // by the arbiter even inside the phases (paper §4.1).
            if let Some(mc) = &self.cfg.monitor {
                if hops > mc.tau {
                    out.push(Action::Note(Note::RequestDropped { requester }));
                    return;
                }
            }
            if self.is_stale(requester, seq) {
                out.push(Action::Note(Note::StaleRequestDiscarded { requester, seq }));
                return;
            }
            self.collect_remote(Entry::with_priority(requester, seq, priority), out);
        } else if let Some(next) = self.forwarding_to {
            // Request forwarding phase (paper §2.1).
            out.push(Action::Send {
                to: next,
                msg: ArbiterMsg::Request {
                    requester,
                    seq,
                    priority,
                    hops: hops + 1,
                },
            });
            out.push(Action::Note(Note::RequestForwarded {
                requester,
                hops: hops + 1,
            }));
        } else if self.monitor_cur == Some(self.id) {
            // The monitor stores strays instead of dropping them (§4.1).
            self.monitor_store
                .push_back(Entry::with_priority(requester, seq, priority));
        } else {
            // Outside both phases: dropped; the requester will notice its
            // absence from the next NEW-ARBITER Q-list and retransmit.
            out.push(Action::Note(Note::RequestDropped { requester }));
        }
    }

    /// Stale-request check against the token's `L` array (paper §2.4).
    pub(crate) fn is_stale(&self, requester: NodeId, seq: SeqNum) -> bool {
        match &self.token {
            Some(tok) => seq <= tok.last_granted_for(requester),
            None => {
                seq <= self
                    .lg_cache
                    .get(requester.index())
                    .copied()
                    .unwrap_or(SeqNum::ZERO)
            }
        }
    }

    /// Queues another node's request at this arbiter. Someone else is
    /// waiting, so any self-grant streak starts over.
    pub(crate) fn collect_remote(&mut self, entry: Entry, out: &mut Outbox) {
        self.collect.push_back(entry);
        self.self_streak = 0;
        self.maybe_arm_collection(out);
    }

    /// Arms the collection window if the arbiter holds the token, is not in
    /// its critical section, and has something to schedule.
    ///
    /// Windows are *lazy*: an idle arbiter does not spin empty collection
    /// windows (as the literal Figure 1 pseudocode would); instead the
    /// window opens when the first request arrives. The schedule a request
    /// observes is identical — it waits exactly `T_req` — and matches the
    /// paper's light-load service-time formula (Eq. 3), which charges the
    /// full `T_req`.
    pub(crate) fn maybe_arm_collection(&mut self, out: &mut Outbox) {
        if self.is_arbiter
            && self.token.is_some()
            && !self.in_cs
            && !self.window_armed
            && !self.collect.is_empty()
        {
            self.window_armed = true;
            out.push(Action::SetTimer {
                timer: ArbiterTimer::CollectionEnd,
                after: self.cfg.t_collect,
            });
            out.push(Action::Note(Note::CollectionOpened));
        }
    }

    /// End of the collection window: seal the Q-list into the token and
    /// dispatch it (paper §2.1 "request collection phase" end).
    fn on_collection_end(&mut self, out: &mut Outbox) {
        self.window_armed = false;
        if !self.is_arbiter || self.token.is_none() || self.in_cs {
            return; // stale timer after role change
        }
        self.seal(out);
    }

    pub(crate) fn seal(&mut self, out: &mut Outbox) {
        // If we *are* the monitor, this seal doubles as a monitor visit:
        // merge the stored requests, reset the period counter, and rotate
        // the role onward if configured (otherwise the role would wedge on
        // a long-lived arbiter and visits would stop).
        let mut acted_as_monitor = false;
        if self.cfg.monitor.is_some() && self.monitor_cur == Some(self.id) {
            acted_as_monitor = true;
            if !self.monitor_store.is_empty() {
                let stored = std::mem::take(&mut self.monitor_store);
                out.push(Action::Note(Note::MonitorFlush {
                    merged: stored.len() as u32,
                }));
                self.collect.append(stored);
            }
            out.push(Action::Note(Note::MonitorVisit));
            if self.cfg.monitor.as_ref().is_some_and(|m| m.rotate) {
                let next = NodeId::from_index((self.id.index() + 1) % self.n);
                self.monitor_cur = Some(next);
            }
        }
        // Drop entries that were granted since being collected (the
        // token's L array, paper §2.4). The collection is filtered and
        // ordered in place: it becomes the sealed list.
        let lg = &self
            .token
            .as_ref()
            .expect("seal requires token")
            .last_granted;
        self.collect
            .retain_entries(|e| e.seq > lg.get(e.node.index()).copied().unwrap_or(SeqNum::ZERO));
        match self.cfg.fairness {
            Fairness::Fcfs => {}
            Fairness::SeqNumFair => self.collect.sort_by_seq(),
            Fairness::Priority => self.collect.sort_by_priority(),
        }
        if self.collect.is_empty() {
            // Nothing to schedule: remain the (idle) arbiter.
            return;
        }
        let steady = self.is_steady_self_only(&self.collect, acted_as_monitor);
        if steady {
            self.self_streak = self.self_streak.wrapping_add(1);
            if self.self_streak > SELF_GRANT_WARMUP
                && !self.self_streak.is_multiple_of(SELF_GRANT_ANNOUNCE_EVERY)
            {
                self.self_grant(out);
                return;
            }
        } else {
            self.self_streak = 0;
        }

        let q = std::mem::take(&mut self.collect);
        let head = q.head().expect("sealed list is non-empty");
        let new_arbiter = q.tail().expect("sealed list is non-empty");
        let q_len = q.len();
        let (round, epoch) = {
            let tok = self.token.as_mut().expect("seal requires token");
            tok.q = q.clone();
            tok.round += 1;
            (tok.round, tok.epoch)
        };
        out.push(Action::Note(Note::QListSealed { len: q_len as u32 }));
        self.observe_q_len(q_len);

        // Starvation-free: route the token through the monitor when the
        // NEW-ARBITER counter reaches the period (paper §4.1). A steady
        // self-only seal skips the detour: it would carry the token there
        // and back to schedule the one node that already holds it.
        if !steady && self.should_route_via_monitor() {
            self.route_via_monitor(round, out);
            return;
        }

        if acted_as_monitor {
            self.na_counter = 0;
        } else {
            self.na_counter = self.na_counter.saturating_add(1);
        }
        let q_for_broadcast = q;

        // Low-load optimization (paper §3.1): with a single scheduled node,
        // the token alone proves its arbitership, so it is excluded from
        // the broadcast.

        let except = if q_for_broadcast.len() == 1 {
            vec![new_arbiter]
        } else {
            Vec::new()
        };
        if !self.cfg.suppress_new_arbiter {
            out.push(Action::Broadcast {
                msg: ArbiterMsg::NewArbiter {
                    arbiter: new_arbiter,
                    q: q_for_broadcast.clone(),
                    prev: self.id,
                    round,
                    counter: self.na_counter,
                    epoch,
                    monitor: self.monitor_cur,
                },
                except,
            });
        }
        self.last_round = round;
        // The previous schedule's buffer collects the next requests.
        self.collect = std::mem::replace(&mut self.last_q_seen, q_for_broadcast);
        self.collect.clear();
        self.prev_arbiter = self.id;
        self.arbiter = new_arbiter;

        if head == self.id {
            // We are scheduled first: enter the CS now; the token moves on
            // after CsDone.
            self.enter_cs(out);
        } else {
            let tok = self.token.take().expect("token present while sealing");
            self.note_token_departure();
            out.push(Action::Send {
                to: head,
                msg: ArbiterMsg::Privilege(tok),
            });
        }

        if new_arbiter != self.id {
            self.is_arbiter = false;
            self.begin_forwarding(new_arbiter, out);
            self.watch_handover(new_arbiter, out);
        } else {
            // We are our own successor (we were the tail); keep collecting.
            self.arm_arbiter_wait(out);
        }
        // If we are scheduled (not at head), arm the token-wait timeout.
        if self.want_cs && !self.in_cs {
            if let Some(pos) = self.last_q_seen.position(self.id) {
                if pos > 0 {
                    self.waiting_confirmed = true;
                    self.arm_token_wait(pos, out);
                }
            }
        }
    }

    /// A seal is *steady self-only* when it schedules only this node's own
    /// request, outside any recovery, monitor visit, or post-regeneration
    /// stretch (DESIGN §3.1). Such seals skip the monitor detour, and past
    /// the warm-up they grant silently.
    fn is_steady_self_only(&self, q: &QList, acted_as_monitor: bool) -> bool {
        q.len() == 1
            && q.head() == Some(self.id)
            && self.want_cs
            && !self.suspended
            && self.recovery_state == RecoveryState::Idle
            && !acted_as_monitor
            && !self.regenerated
    }

    /// Silent self-grant: the token stays, and its holder alone is
    /// scheduled, so the CS starts at once with no NEW-ARBITER and the
    /// round unchanged. The paper's §3.1 optimisation drops the broadcast
    /// to a sole scheduled node; here that node is the arbiter itself.
    ///
    /// The sealed collection moves into the token, and the token's spent
    /// list becomes the next collection buffer, so the grant allocates
    /// nothing.
    fn self_grant(&mut self, out: &mut Outbox) {
        let tok = self.token.as_mut().expect("seal requires token");
        std::mem::swap(&mut tok.q, &mut self.collect);
        self.collect.clear();
        out.push(Action::Note(Note::SelfGrant));
        self.enter_cs(out);
    }

    pub(crate) fn begin_forwarding(&mut self, target: NodeId, out: &mut Outbox) {
        self.forwarding_to = Some(target);
        out.push(Action::SetTimer {
            timer: ArbiterTimer::ForwardEnd,
            after: self.cfg.t_forward,
        });
        out.push(Action::Note(Note::ForwardingOpened { successor: target }));
    }

    fn on_forward_end(&mut self, out: &mut Outbox) {
        if self.forwarding_to.take().is_some() {
            out.push(Action::Note(Note::ForwardingClosed));
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the NEW-ARBITER message fields
    fn on_new_arbiter(
        &mut self,
        arbiter: NodeId,
        q: QList,
        prev: NodeId,
        round: u64,
        counter: u32,
        epoch: u64,
        monitor: Option<NodeId>,
        out: &mut Outbox,
    ) {
        // A watcher's point-to-point re-send of the broadcast that elected
        // us (paper §6 lost-handover repair) carries the round we already
        // observed before crashing: `on_crash` keeps `last_round`, so the
        // plain staleness check would discard the repair forever while we
        // answer probes as a healthy non-arbiter — a permanent wedge.
        // Accept the equal round iff it names us and we lost the role.
        let handover_repair = round == self.last_round && arbiter == self.id && !self.is_arbiter;
        if round <= self.last_round && !handover_repair {
            return; // out-of-date broadcast overtaken by a newer one
        }
        self.last_round = round;
        if epoch > self.epoch {
            self.epoch = epoch;
        }
        self.na_counter = counter;
        self.observe_q_len(q.len());
        self.arbiter = arbiter;
        self.prev_arbiter = prev;
        if let Some(m) = monitor {
            if self.cfg.monitor.is_some() {
                self.monitor_cur = Some(m);
            }
        }
        self.last_q_seen = q.clone();
        self.had_token_recently = false;
        self.enquiring_arbiter = None;
        self.note_arbiter_observed(arbiter, out);
        if arbiter != self.id {
            self.abort_invalidation_superseded(out);
        }

        // Forwarding targets track the freshest arbiter.
        if self.forwarding_to.is_some() {
            self.forwarding_to = Some(arbiter);
        }

        // Implicit-acknowledgment logic (paper §6 "Lost Request"). Runs
        // before any arbiter-role change so that `waiting_confirmed` is
        // accurate when `become_arbiter` decides whether to fold our own
        // request into the new queue.
        if self.want_cs && !self.in_cs {
            if let Some(pos) = q.position(self.id) {
                self.waiting_confirmed = true;
                self.miss_count = 0;
                self.silent_retries = 0;
                out.push(Action::CancelTimer(ArbiterTimer::RequestRetry));
                self.arm_token_wait(pos, out);
            } else {
                // The NEW-ARBITER Q-list is the authoritative schedule: a
                // broadcast without us voids any earlier confirmation (our
                // entry was lost to a drop, a crash, or a regeneration
                // that excluded us).
                self.waiting_confirmed = false;
                self.cancel_requester_wait(out);
                self.miss_count += 1;
                if arbiter != self.id {
                    self.handle_missing_from_q(out);
                }
                // Each NEW-ARBITER proves the system is making progress, so
                // push the coarse retry timeout back: it exists only for
                // the no-broadcast-ever deadlock case.
                self.arm_request_retry(out);
            }
        }

        if arbiter == self.id && !self.is_arbiter {
            self.become_arbiter(out);
        } else if arbiter != self.id && self.is_arbiter && self.token.is_none() {
            // Another node took over (recovery path); stand down.
            self.is_arbiter = false;
            self.window_armed = false;
        }
    }

    /// Our outstanding request was absent from a NEW-ARBITER Q-list:
    /// escalate to the monitor after τ misses (starvation-free, §4.1) or
    /// retransmit to the new arbiter (basic, §6 "Lost Request").
    ///
    /// Retransmission distinguishes two signatures. If the arbitership
    /// moved away from the node we sent to, our request reached a node
    /// that is no longer collecting — it was forwarded or dropped — so we
    /// retransmit immediately. If the same arbiter sealed without us, our
    /// request merely crossed the seal boundary and sits in the next
    /// batch; we only retransmit after `miss_grace` consecutive misses.
    fn handle_missing_from_q(&mut self, out: &mut Outbox) {
        if let Some(mc) = self.cfg.monitor.clone() {
            if self.miss_count >= mc.tau.max(1) {
                let monitor = self.monitor_cur.unwrap_or(mc.monitor);
                if monitor == self.id {
                    self.monitor_store.push_back(self.own_entry());
                } else {
                    out.push(Action::Send {
                        to: monitor,
                        msg: ArbiterMsg::MonitorSubmit {
                            requester: self.id,
                            seq: self.my_seq,
                            priority: self.priority,
                        },
                    });
                }
                out.push(Action::Note(Note::RequestEscalated { requester: self.id }));
                self.miss_count = 0;
                return;
            }
        }
        if !self.cfg.retransmit_on_miss || self.waiting_confirmed {
            return;
        }
        let arbiter_moved = self
            .request_sent_to
            .is_some_and(|sent| sent != self.arbiter);
        if arbiter_moved || self.miss_count >= self.cfg.miss_grace.max(1) {
            self.request_sent_to = Some(self.arbiter);
            out.push(Action::Send {
                to: self.arbiter,
                msg: ArbiterMsg::Request {
                    requester: self.id,
                    seq: self.my_seq,
                    priority: self.priority,
                    hops: 0,
                },
            });
            out.push(Action::Note(Note::RequestRetransmitted {
                requester: self.id,
                misses: self.miss_count,
            }));
        }
    }

    pub(crate) fn become_arbiter(&mut self, out: &mut Outbox) {
        self.is_arbiter = true;
        self.self_streak = 0;
        self.regenerated = false;
        self.collect.clear();
        if self.want_cs && !self.waiting_confirmed && !self.in_cs {
            // Fold our not-yet-scheduled request into our own queue.
            self.collect.push_back(self.own_entry());
        }
        out.push(Action::Note(Note::BecameArbiter));
        self.arm_arbiter_wait(out);
        self.maybe_arm_collection(out);
    }

    fn on_privilege(&mut self, tok: Token, out: &mut Outbox) {
        if tok.epoch < self.epoch {
            // A regenerated token superseded this one (paper §6): discard.
            out.push(Action::Note(Note::StaleTokenDiscarded));
            return;
        }
        if let Some(cur) = &self.token {
            // Duplicate tokens can transiently coexist when concurrent
            // recoveries race; keep the stronger lineage and retire the
            // other so exactly one survives.
            if (tok.epoch, tok.round) <= (cur.epoch, cur.round) {
                out.push(Action::Note(Note::StaleTokenDiscarded));
                return;
            }
            out.push(Action::Note(Note::StaleTokenDiscarded));
            self.token = None;
        }
        // The token came back through contention, not through our own
        // detour: another node was granted since we last held it.
        let me = self.id.index();
        if self.self_streak > 0
            && tok
                .last_granted
                .iter()
                .zip(&self.lg_cache)
                .enumerate()
                .any(|(i, (granted, cached))| i != me && granted > cached)
        {
            self.self_streak = 0;
        }
        self.epoch = tok.epoch;
        self.lg_cache.clone_from(&tok.last_granted);
        self.token = Some(tok);
        self.cancel_token_wait(out);
        self.abort_invalidation_token_arrived(out);
        self.self_report_token(out);

        let tok_ref = self.token.as_ref().expect("just stored");
        if tok_ref.via_monitor {
            // The sealing arbiter addressed us as the monitor; honor it
            // even if we believe the role has rotated onward (views of the
            // current monitor can lag — the flag is authoritative).
            self.monitor_flush(out);
            return;
        }

        match tok_ref.q.head() {
            Some(h) if h == self.id => {
                if self.want_cs {
                    self.enter_cs(out);
                } else {
                    out.push(Action::Note(Note::SpuriousGrant));
                    self.advance_token(out);
                }
                // The token is proof of arbitership (paper §3.1): if the
                // sealed list names us as its tail, we are the next
                // arbiter *now* — Figure 1's arbiter collects requests
                // while still executing its own critical section. (With
                // the single-entry broadcast optimization, no NEW-ARBITER
                // message ever tells us.)
                let is_tail = self
                    .token
                    .as_ref()
                    .is_some_and(|t| t.q.tail() == Some(self.id) || t.q.is_empty());
                if is_tail && !self.is_arbiter {
                    self.arbiter = self.id;
                    self.become_arbiter(out);
                }
            }
            Some(h) => {
                // Misrouted (can occur transiently during recovery):
                // forward toward the rightful head.
                let tok = self.token.take().expect("token present");
                self.note_token_departure();
                out.push(Action::Send {
                    to: h,
                    msg: ArbiterMsg::Privilege(tok),
                });
            }
            None => {
                // An empty token parks here; we act as arbiter-with-token.
                if !self.is_arbiter {
                    self.become_arbiter(out);
                } else {
                    self.maybe_arm_collection(out);
                }
            }
        }
    }

    pub(crate) fn enter_cs(&mut self, out: &mut Outbox) {
        debug_assert!(self.token.is_some(), "CS entry requires the token");
        self.in_cs = true;
        self.waiting_confirmed = false;
        self.deferred_pass = false;
        self.miss_count = 0;
        let seq = self.my_seq;
        if let Some(tok) = self.token.as_mut() {
            tok.record_grant(self.id, seq);
        }
        if let Some(slot) = self.lg_cache.get_mut(self.id.index()) {
            *slot = seq;
        }
        self.cancel_token_wait(out);
        if self.cfg.request_retry.is_some() {
            out.push(Action::CancelTimer(ArbiterTimer::RequestRetry));
        }
        out.push(Action::EnterCs);
    }

    fn on_cs_done(&mut self, out: &mut Outbox) {
        debug_assert!(self.in_cs, "CsDone without a critical section");
        self.in_cs = false;
        self.want_cs = false;
        self.advance_token(out);
    }

    /// After executing (or skipping) our turn: remove ourselves from the
    /// head and move the token along, or assume arbitership if the list is
    /// exhausted (we were the tail).
    pub(crate) fn advance_token(&mut self, out: &mut Outbox) {
        let Some(tok) = self.token.as_mut() else {
            return;
        };
        // Normally we sit at the head; after a recovery race we may hold
        // an adopted token that schedules us elsewhere (or not at all) —
        // remove our entry wherever it is.
        tok.q.remove(self.id);
        if self.suspended {
            // An ENQUIRY froze us; pass (or park) only after RESUME.
            self.deferred_pass = true;
            return;
        }
        self.dispatch_token(out);
    }

    /// Sends the token to the next head, or parks it here when we are the
    /// new arbiter (empty list).
    pub(crate) fn dispatch_token(&mut self, out: &mut Outbox) {
        let Some(tok) = self.token.as_ref() else {
            return;
        };
        if tok.epoch < self.epoch {
            // A regeneration superseded the token we hold (we learned the
            // new epoch mid-critical-section): retire it rather than keep
            // a dead token in circulation.
            self.token = None;
            out.push(Action::Note(Note::StaleTokenDiscarded));
            return;
        }
        match tok.q.head() {
            Some(next) if next == self.id => {
                // A recovery race re-scheduled us at the head of the very
                // token we hold (e.g. a regenerated list adopted while our
                // previous entry was mid-flight). Serve or skip ourselves.
                if self.want_cs && !self.in_cs {
                    self.enter_cs(out);
                } else {
                    let tok = self.token.as_mut().expect("token present");
                    tok.q.remove(self.id);
                    out.push(Action::Note(Note::SpuriousGrant));
                    self.dispatch_token(out);
                }
            }
            Some(next) => {
                let tok = self.token.take().expect("token present");
                self.note_token_departure();
                out.push(Action::Send {
                    to: next,
                    msg: ArbiterMsg::Privilege(tok),
                });
            }
            None => {
                // We were the tail: the token stays and we are the arbiter.
                if !self.is_arbiter {
                    self.become_arbiter(out);
                } else {
                    self.arm_arbiter_wait(out);
                    self.maybe_arm_collection(out);
                }
            }
        }
    }

    pub(crate) fn note_token_departure(&mut self) {
        self.had_token_recently = true;
        self.suspended = false;
        self.deferred_pass = false;
    }

    fn on_crash(&mut self) {
        self.alive = false;
        self.is_arbiter = false;
        self.collect = QList::new();
        self.window_armed = false;
        self.forwarding_to = None;
        self.token = None;
        self.in_cs = false;
        self.want_cs = false;
        self.waiting_confirmed = false;
        self.miss_count = 0;
        self.monitor_store = QList::new();
        self.recovery_state = RecoveryState::Idle;
        self.suspended = false;
        self.deferred_pass = false;
        self.had_token_recently = false;
        self.watching = None;
        self.enquiring_arbiter = None;
        self.self_streak = 0;
        self.regenerated = false;
    }

    fn on_recover(&mut self) {
        self.alive = true;
        // Rejoin as a regular node; the next NEW-ARBITER teaches us the
        // current arbiter, round, and epoch.
    }

    /// Feeds one input and appends the actions to execute, in order, to
    /// `out`. [`Protocol::step`] is this with a fresh buffer; a driver that
    /// keeps one buffer across steps steps without allocating.
    pub fn step_into(
        &mut self,
        input: Input<ArbiterMsg, ArbiterTimer>,
        out: &mut Vec<Action<ArbiterMsg, ArbiterTimer>>,
    ) {
        if !self.alive {
            match input {
                Input::Start => self.on_start(out),
                Input::Recover => self.on_recover(),
                _ => {}
            }
            return;
        }
        match input {
            Input::Start => self.on_start(out),
            Input::RequestCs => self.on_request_cs(out),
            Input::CsDone => self.on_cs_done(out),
            Input::Crash => self.on_crash(),
            Input::Recover => self.on_recover(),
            Input::Timer(t) => match t {
                ArbiterTimer::CollectionEnd => self.on_collection_end(out),
                ArbiterTimer::ForwardEnd => self.on_forward_end(out),
                ArbiterTimer::TokenWait => self.on_token_wait(out),
                ArbiterTimer::ArbiterWait => self.on_arbiter_wait(out),
                ArbiterTimer::EnquiryTimeout => self.on_enquiry_timeout(out),
                ArbiterTimer::HandoverWatch => self.on_handover_watch(out),
                ArbiterTimer::ProbeTimeout => self.on_probe_timeout(out),
                ArbiterTimer::RequestRetry => self.on_request_retry(out),
            },
            Input::Deliver { from, msg } => match msg {
                ArbiterMsg::Request {
                    requester,
                    seq,
                    priority,
                    hops,
                } => self.on_request(requester, seq, priority, hops, out),
                ArbiterMsg::Privilege(tok) => self.on_privilege(tok, out),
                ArbiterMsg::NewArbiter {
                    arbiter,
                    q,
                    prev,
                    round,
                    counter,
                    epoch,
                    monitor,
                } => self.on_new_arbiter(arbiter, q, prev, round, counter, epoch, monitor, out),
                ArbiterMsg::MonitorSubmit {
                    requester,
                    seq,
                    priority,
                } => self.on_monitor_submit(requester, seq, priority, out),
                ArbiterMsg::Warning { round } => self.on_warning(from, round, out),
                ArbiterMsg::Enquiry { epoch } => self.on_enquiry(from, epoch, out),
                ArbiterMsg::EnquiryReply { status } => self.on_enquiry_reply(from, status, out),
                ArbiterMsg::Resume => self.on_resume(out),
                ArbiterMsg::Invalidate { epoch } => self.on_invalidate(epoch, out),
                ArbiterMsg::Probe => self.on_probe(from, out),
                ArbiterMsg::ProbeAck { arbiter } => self.on_probe_ack(from, arbiter, out),
            },
        }
    }
}

impl Protocol for ArbiterNode {
    type Msg = ArbiterMsg;
    type Timer = ArbiterTimer;

    fn id(&self) -> NodeId {
        self.id
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn step(&mut self, input: Input<ArbiterMsg, ArbiterTimer>) -> Outbox {
        let mut out = Outbox::new();
        self.step_into(input, &mut out);
        out
    }

    fn holds_token(&self) -> bool {
        self.token.is_some()
    }

    fn algorithm(&self) -> &'static str {
        if self.cfg.recovery.is_some() {
            "arbiter-ft"
        } else if self.cfg.monitor.is_some() {
            "arbiter-sf"
        } else {
            "arbiter"
        }
    }

    fn fingerprint(&self, mut h: &mut dyn std::hash::Hasher) {
        std::hash::Hash::hash(self, &mut h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ProtocolFactory;

    const N: usize = 3;
    /// The hot arbiter; node 0 is the monitor, node 2 another requester.
    const HOT: NodeId = NodeId(1);

    fn hot_arbiter() -> ArbiterNode {
        let cfg = ArbiterConfig {
            initial_arbiter: HOT,
            ..ArbiterConfig::fault_tolerant()
        };
        let mut node = cfg.build(HOT, N);
        node.step(Input::Start);
        node
    }

    /// The round of the NEW-ARBITER broadcast among `acts`, if any.
    fn announced_round(acts: &Outbox) -> Option<u64> {
        acts.iter().find_map(|a| match a {
            Action::Broadcast {
                msg: ArbiterMsg::NewArbiter { round, .. },
                ..
            } => Some(*round),
            _ => None,
        })
    }

    fn transmits(acts: &Outbox) -> bool {
        acts.iter().any(Action::is_transmission)
    }

    /// Requests the CS and closes the collection window; returns the
    /// seal's actions with the node still inside its CS.
    fn seal_own_request(node: &mut ArbiterNode) -> Outbox {
        node.step(Input::RequestCs);
        let acts = node.step(Input::Timer(ArbiterTimer::CollectionEnd));
        assert!(node.in_cs(), "a self-only seal enters the CS: {acts:?}");
        acts
    }

    /// One closed-loop cycle at the arbiter; returns the seal's actions.
    fn cycle(node: &mut ArbiterNode) -> Outbox {
        let acts = seal_own_request(node);
        assert!(!transmits(&node.step(Input::CsDone)));
        acts
    }

    /// Runs the warm-up and asserts the next seal is silent.
    fn silent_arbiter() -> ArbiterNode {
        let mut node = hot_arbiter();
        for _ in 0..SELF_GRANT_WARMUP {
            assert!(announced_round(&cycle(&mut node)).is_some());
        }
        assert!(!transmits(&cycle(&mut node)));
        node
    }

    fn round(node: &ArbiterNode) -> u64 {
        node.token.as_ref().expect("holds the token").round
    }

    #[test]
    fn silent_grant_enters_the_cs_with_no_message() {
        let mut node = silent_arbiter();
        let before = round(&node);
        let acts = seal_own_request(&mut node);
        assert!(acts.contains(&Action::EnterCs));
        assert!(acts.contains(&Action::Note(Note::SelfGrant)));
        assert!(!transmits(&acts), "silent grant sent: {acts:?}");
        assert!(!acts.contains(&Action::Note(Note::MonitorVisit)));
        assert_eq!(round(&node), before, "a silent grant keeps the round");
        assert!(node.holds_token() && node.is_arbiter());
    }

    #[test]
    fn warm_up_and_every_256th_seal_announce_with_a_fresh_round() {
        let mut node = hot_arbiter();
        let mut announced = Vec::new();
        for i in 1..=2 * SELF_GRANT_ANNOUNCE_EVERY + 10 {
            let acts = cycle(&mut node);
            assert!(
                !acts.iter().any(|a| matches!(a, Action::Send { .. })),
                "seal {i} left the node: {acts:?}"
            );
            if let Some(round) = announced_round(&acts) {
                announced.push((i, round));
            }
        }
        assert_eq!(
            announced,
            [
                (1, 1),
                (2, 2),
                (SELF_GRANT_ANNOUNCE_EVERY, 3),
                (2 * SELF_GRANT_ANNOUNCE_EVERY, 4)
            ]
        );
    }

    #[test]
    fn remote_request_ends_the_streak() {
        let mut node = silent_arbiter();
        seal_own_request(&mut node);
        let req = ArbiterMsg::Request {
            requester: NodeId(2),
            seq: SeqNum(1),
            priority: Priority::default(),
            hops: 0,
        };
        node.step(Input::Deliver {
            from: NodeId(2),
            msg: req,
        });
        assert_eq!(node.self_streak, 0);
        node.step(Input::CsDone);
        // The seal schedules node 2 ahead of us: the token leaves (here
        // through the monitor, whose period has come round).
        node.step(Input::RequestCs);
        let acts = node.step(Input::Timer(ArbiterTimer::CollectionEnd));
        let Some(mut tok) = acts.iter().find_map(|a| match a {
            Action::Send {
                msg: ArbiterMsg::Privilege(tok),
                ..
            } => Some(tok.clone()),
            _ => None,
        }) else {
            panic!("the token stayed: {acts:?}");
        };
        assert_eq!(tok.q.nodes().collect::<Vec<_>>(), [NodeId(2), HOT]);
        // Node 2 runs its CS and passes the token on to us, the tail.
        tok.via_monitor = false;
        tok.record_grant(NodeId(2), SeqNum(1));
        tok.q.remove(NodeId(2));
        node.step(Input::Deliver {
            from: NodeId(2),
            msg: ArbiterMsg::Privilege(tok),
        });
        assert!(node.in_cs() && node.is_arbiter());
        node.step(Input::CsDone);
        assert_next_self_only_seals_warm_up(&mut node);
    }

    /// The next self-only seals take the normal path: the warm-up seals
    /// broadcast, then the streak goes silent again.
    fn assert_next_self_only_seals_warm_up(node: &mut ArbiterNode) {
        for _ in 0..SELF_GRANT_WARMUP {
            let acts = cycle(node);
            assert!(announced_round(&acts).is_some(), "no announce: {acts:?}");
        }
        assert!(!transmits(&cycle(node)));
    }

    #[test]
    fn token_returning_with_another_grant_ends_the_streak() {
        let mut node = silent_arbiter();
        // A stronger token lineage (a concurrent recovery's) reaches the
        // idle arbiter; its L array shows node 2 was served meanwhile.
        let mut tok = Token::initial(N);
        tok.epoch = 1;
        tok.record_grant(NodeId(2), SeqNum(4));
        tok.record_grant(HOT, node.my_seq);
        let acts = node.step(Input::Deliver {
            from: NodeId(2),
            msg: ArbiterMsg::Privilege(tok),
        });
        assert!(acts.contains(&Action::Note(Note::StaleTokenDiscarded)));
        assert_eq!(node.self_streak, 0);
        assert_next_self_only_seals_warm_up(&mut node);
    }

    #[test]
    fn token_returning_without_other_grants_keeps_the_streak() {
        let mut node = silent_arbiter();
        let streak = node.self_streak;
        let mut tok = node.token.clone().expect("holds the token");
        tok.epoch = 1;
        node.step(Input::Deliver {
            from: NodeId(0),
            msg: ArbiterMsg::Privilege(tok),
        });
        assert_eq!(node.self_streak, streak);
        assert!(!transmits(&cycle(&mut node)));
    }

    #[test]
    fn regeneration_restores_the_monitor_detour_until_the_role_moves() {
        let mut node = silent_arbiter();
        // The token is declared lost under us and regenerated here.
        node.step(Input::Deliver {
            from: NodeId(0),
            msg: ArbiterMsg::Invalidate { epoch: 1 },
        });
        assert!(!node.holds_token());
        node.step(Input::Timer(ArbiterTimer::ArbiterWait));
        node.step(Input::Timer(ArbiterTimer::EnquiryTimeout));
        let acts = node.step(Input::Timer(ArbiterTimer::EnquiryTimeout));
        assert!(acts.contains(&Action::Note(Note::TokenRegenerated)));
        assert!(node.regenerated && node.self_streak == 0);

        // The post-regeneration self-only seal routes via the monitor.
        node.step(Input::RequestCs);
        let acts = node.step(Input::Timer(ArbiterTimer::CollectionEnd));
        let Some(mut tok) = acts.iter().find_map(|a| match a {
            Action::Send {
                to: NodeId(0),
                msg: ArbiterMsg::Privilege(tok),
            } => Some(tok.clone()),
            _ => None,
        }) else {
            panic!("no monitor detour after regeneration: {acts:?}");
        };
        assert!(tok.via_monitor && !node.in_cs());

        // The monitor hands the token back; the node becomes arbiter again.
        tok.via_monitor = false;
        tok.round += 1;
        node.step(Input::Deliver {
            from: NodeId(0),
            msg: ArbiterMsg::Privilege(tok),
        });
        assert!(node.in_cs() && node.is_arbiter() && !node.regenerated);
        node.step(Input::CsDone);
        assert_next_self_only_seals_warm_up(&mut node);
    }

    #[test]
    fn crash_ends_the_streak() {
        let mut node = silent_arbiter();
        node.step(Input::Crash);
        node.step(Input::Recover);
        assert_eq!(node.self_streak, 0);
        assert!(!node.is_arbiter() && !node.holds_token());
        // Rejoined, it is handed a parked token and becomes arbiter.
        let mut tok = node.lg_cache.clone();
        tok[HOT.index()] = node.my_seq;
        node.step(Input::Deliver {
            from: NodeId(0),
            msg: ArbiterMsg::Privilege(Token {
                last_granted: tok,
                round: 10,
                ..Token::initial(N)
            }),
        });
        assert!(node.is_arbiter() && node.holds_token());
        assert_next_self_only_seals_warm_up(&mut node);
    }
}
