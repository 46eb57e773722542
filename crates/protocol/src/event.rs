//! The input/output vocabulary every protocol speaks.
//!
//! A protocol consumes [`Input`]s and returns [`Action`]s. Nothing else ever
//! crosses the boundary, which is what lets the same state machine run under
//! the discrete-event simulator (for the paper's figures) and the threaded
//! runtime (for real use) and be tested exhaustively in isolation.

use serde::{Deserialize, Serialize};

use crate::types::{NodeId, SeqNum, TimeDelta};

/// An event fed *into* a protocol state machine by its driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input<M, T> {
    /// The node has booted. Always the first input a node sees.
    Start,
    /// A message from `from` has been delivered to this node.
    Deliver {
        /// Originating node.
        from: NodeId,
        /// The protocol message.
        msg: M,
    },
    /// A timer previously set via [`Action::SetTimer`] has fired.
    Timer(T),
    /// The local application wants to enter the critical section.
    ///
    /// Drivers must ensure at most one application request is outstanding
    /// per node: the next `RequestCs` may only be issued after the matching
    /// critical section has been executed and [`Input::CsDone`] consumed
    /// (drivers queue excess arrivals).
    RequestCs,
    /// The local application has finished executing its critical section.
    ///
    /// Fed by the driver some time after the protocol emitted
    /// [`Action::EnterCs`].
    CsDone,
    /// The node crashes, losing all volatile state. Only meaningful to
    /// protocols with recovery support; others may treat it as fatal.
    Crash,
    /// The node restarts after a crash with fresh state.
    Recover,
}

/// An effect requested *by* a protocol state machine, executed by the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M, T> {
    /// Send `msg` to node `to`. Counted as one message.
    Send {
        /// Destination node.
        to: NodeId,
        /// The protocol message.
        msg: M,
    },
    /// Send `msg` to every node except this one. Counted as `n - 1`
    /// messages (or fewer if `except` names additional nodes to skip).
    Broadcast {
        /// The protocol message.
        msg: M,
        /// Additional nodes to skip (the sender is always skipped).
        except: Vec<NodeId>,
    },
    /// Arm (or re-arm) the timer identified by `timer` to fire `after` from
    /// now. Re-arming an already-pending timer replaces it.
    SetTimer {
        /// Protocol-defined timer identity.
        timer: T,
        /// Delay until the timer fires.
        after: TimeDelta,
    },
    /// Cancel the pending timer identified by `timer`, if any.
    CancelTimer(T),
    /// The node may now execute its critical section. The driver runs the
    /// critical section and later feeds [`Input::CsDone`].
    EnterCs,
    /// A protocol-level observation for tracing/metrics; has no effect on
    /// execution.
    Note(Note),
}

impl<M, T> Action<M, T> {
    /// True if this action transmits at least one message.
    pub fn is_transmission(&self) -> bool {
        matches!(self, Action::Send { .. } | Action::Broadcast { .. })
    }
}

/// Protocol-level observations surfaced for metrics and traces.
///
/// Drivers count these; they never influence protocol execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Note {
    /// An arbiter forwarded a late request to its successor (paper §2.1,
    /// request forwarding phase). Figure 5 plots the fraction of these.
    RequestForwarded {
        /// The node whose request was forwarded.
        requester: NodeId,
        /// How many hops the request has now been forwarded.
        hops: u32,
    },
    /// A request arrived outside both phases (or exceeded the forwarding
    /// threshold τ) and was dropped. The requester must retransmit.
    RequestDropped {
        /// The node whose request was dropped.
        requester: NodeId,
    },
    /// A requester noticed its id missing from a NEW-ARBITER Q-list and
    /// retransmitted its request.
    RequestRetransmitted {
        /// Retransmitting node.
        requester: NodeId,
        /// Consecutive NEW-ARBITER broadcasts that did not schedule it.
        misses: u32,
    },
    /// A requester escalated its request to the monitor node (starvation-free
    /// variant, paper §4.1).
    RequestEscalated {
        /// Escalating node.
        requester: NodeId,
    },
    /// The token visited the monitor node (starvation-free variant).
    MonitorVisit,
    /// The monitor merged its stored stray requests into the token's
    /// Q-list (the flush half of a monitor visit, paper §4.1).
    MonitorFlush {
        /// Stored requests merged into the schedule.
        merged: u32,
    },
    /// An arbiter opened a request collection window (paper §2.1).
    CollectionOpened,
    /// An outgoing arbiter opened its request forwarding phase, relaying
    /// late requests to the successor for `T_fwd` (paper §2.1).
    ForwardingOpened {
        /// The successor receiving forwarded requests.
        successor: NodeId,
    },
    /// The forwarding phase timed out; late requests are dropped again.
    ForwardingClosed,
    /// This node became the arbiter.
    BecameArbiter,
    /// An arbiter finalized a Q-list of the given length (scheduling one
    /// batch of critical sections).
    QListSealed {
        /// Number of scheduled requests in the sealed list.
        len: u32,
    },
    /// An arbiter holding the token sealed a Q-list naming only itself and
    /// entered its critical section with no message: no NEW-ARBITER, the
    /// round unchanged (the steady-state self-grant).
    SelfGrant,
    /// A node received the token without a pending request (a spurious grant
    /// caused by duplicate scheduling) and passed it straight on.
    SpuriousGrant,
    /// Token-loss recovery: a waiting node timed out and warned the arbiter.
    TokenWarning,
    /// Token-loss recovery: the arbiter began the two-phase invalidation.
    InvalidationStarted,
    /// Token-loss recovery: the token was found alive; operations resumed.
    TokenFound,
    /// Token-loss recovery: the token was declared lost and regenerated.
    TokenRegenerated,
    /// A previous arbiter concluded the current arbiter failed and took over.
    ArbiterTakeover,
    /// A sequence-number check discarded a stale (duplicate) request.
    StaleRequestDiscarded {
        /// The node whose stale request was discarded.
        requester: NodeId,
        /// The stale sequence number.
        seq: SeqNum,
    },
    /// A token from a superseded epoch arrived after regeneration and was
    /// discarded to preserve the single-token invariant.
    StaleTokenDiscarded,
}

impl Note {
    /// Stable label used by metric tables.
    pub fn label(self) -> &'static str {
        match self {
            Note::RequestForwarded { .. } => "request_forwarded",
            Note::RequestDropped { .. } => "request_dropped",
            Note::RequestRetransmitted { .. } => "request_retransmitted",
            Note::RequestEscalated { .. } => "request_escalated",
            Note::MonitorVisit => "monitor_visit",
            Note::MonitorFlush { .. } => "monitor_flush",
            Note::CollectionOpened => "collection_opened",
            Note::ForwardingOpened { .. } => "forwarding_opened",
            Note::ForwardingClosed => "forwarding_closed",
            Note::BecameArbiter => "became_arbiter",
            Note::QListSealed { .. } => "qlist_sealed",
            Note::SelfGrant => "self_grant",
            Note::SpuriousGrant => "spurious_grant",
            Note::TokenWarning => "token_warning",
            Note::InvalidationStarted => "invalidation_started",
            Note::TokenFound => "token_found",
            Note::TokenRegenerated => "token_regenerated",
            Note::ArbiterTakeover => "arbiter_takeover",
            Note::StaleRequestDiscarded { .. } => "stale_request_discarded",
            Note::StaleTokenDiscarded => "stale_token_discarded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type A = Action<&'static str, u8>;

    #[test]
    fn transmission_classification() {
        let send: A = Action::Send {
            to: NodeId(1),
            msg: "m",
        };
        let bcast: A = Action::Broadcast {
            msg: "m",
            except: vec![],
        };
        let timer: A = Action::SetTimer {
            timer: 0,
            after: TimeDelta::from_millis(1),
        };
        assert!(send.is_transmission());
        assert!(bcast.is_transmission());
        assert!(!timer.is_transmission());
        assert!(!A::EnterCs.is_transmission());
        assert!(!A::Note(Note::MonitorVisit).is_transmission());
    }

    #[test]
    fn note_labels_are_distinct() {
        let notes = [
            Note::RequestForwarded {
                requester: NodeId(0),
                hops: 1,
            },
            Note::RequestDropped {
                requester: NodeId(0),
            },
            Note::RequestRetransmitted {
                requester: NodeId(0),
                misses: 1,
            },
            Note::RequestEscalated {
                requester: NodeId(0),
            },
            Note::MonitorVisit,
            Note::MonitorFlush { merged: 1 },
            Note::CollectionOpened,
            Note::ForwardingOpened {
                successor: NodeId(1),
            },
            Note::ForwardingClosed,
            Note::BecameArbiter,
            Note::QListSealed { len: 1 },
            Note::SelfGrant,
            Note::SpuriousGrant,
            Note::TokenWarning,
            Note::InvalidationStarted,
            Note::TokenFound,
            Note::TokenRegenerated,
            Note::ArbiterTakeover,
            Note::StaleRequestDiscarded {
                requester: NodeId(0),
                seq: SeqNum(1),
            },
            Note::StaleTokenDiscarded,
        ];
        let mut labels: Vec<_> = notes.iter().map(|n| n.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), notes.len());
    }
}
