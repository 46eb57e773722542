//! Failure recovery: token loss, lost requests, failed arbiters (paper §6).
//!
//! These methods extend [`ArbiterNode`]; they are inert unless
//! [`crate::arbiter::ArbiterConfig::recovery`] is set.

use crate::arbiter::messages::{ArbiterMsg, ArbiterTimer, Token, TokenStatus};
use crate::arbiter::node::{ArbiterNode, Outbox};
use crate::event::{Action, Note};
use crate::qlist::QList;
use crate::types::NodeId;

/// Progress of the two-phase token invalidation protocol at the arbiter.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub(crate) enum RecoveryState {
    /// Normal operation.
    #[default]
    Idle,
    /// Phase 1: ENQUIRY messages are out; collecting replies.
    Enquiring {
        /// Nodes that have not replied yet.
        pending: Vec<NodeId>,
        /// Nodes that replied "I am waiting for the token".
        waiting: Vec<NodeId>,
        /// Every node enquired this round (reused by the second round).
        targets: Vec<NodeId>,
        /// True once a second enquiry round has been issued.
        second_round: bool,
    },
}

impl ArbiterNode {
    fn recovery_enabled(&self) -> bool {
        self.cfg.recovery.is_some()
    }

    /// Arms the token-wait timeout for a node scheduled at Q-list position
    /// `pos` (deeper positions expect the token later).
    pub(crate) fn arm_token_wait(&mut self, pos: usize, out: &mut Outbox) {
        let Some(rc) = &self.cfg.recovery else {
            return;
        };
        out.push(Action::SetTimer {
            timer: ArbiterTimer::TokenWait,
            after: rc
                .token_wait_base
                .saturating_add(rc.token_wait_per_position * pos as u64),
        });
    }

    /// Cancels token-wait timeouts (the token arrived).
    pub(crate) fn cancel_token_wait(&mut self, out: &mut Outbox) {
        if !self.recovery_enabled() {
            return;
        }
        out.push(Action::CancelTimer(ArbiterTimer::TokenWait));
        out.push(Action::CancelTimer(ArbiterTimer::ArbiterWait));
    }

    /// Cancels only the requester-side wait (our scheduling was voided).
    pub(crate) fn cancel_requester_wait(&mut self, out: &mut Outbox) {
        if self.recovery_enabled() {
            out.push(Action::CancelTimer(ArbiterTimer::TokenWait));
        }
    }

    /// Arms the arbiter's own token-wait timeout (paper §6: "every
    /// requesting node (including the current arbiter) selects an
    /// appropriate timeout to receive the token").
    pub(crate) fn arm_arbiter_wait(&mut self, out: &mut Outbox) {
        let Some(rc) = &self.cfg.recovery else {
            return;
        };
        if self.token.is_some() {
            return;
        }
        let depth = self.last_q_seen.len().max(1);
        out.push(Action::SetTimer {
            timer: ArbiterTimer::ArbiterWait,
            after: rc
                .token_wait_base
                .saturating_add(rc.token_wait_per_position * depth as u64),
        });
    }

    /// A scheduled requester timed out: warn the arbiter (paper §6).
    pub(crate) fn on_token_wait(&mut self, out: &mut Outbox) {
        if !self.recovery_enabled() || !self.want_cs || self.token.is_some() || self.in_cs {
            return;
        }
        if self.arbiter == self.id {
            self.start_invalidation(out);
            return;
        }
        out.push(Action::Send {
            to: self.arbiter,
            msg: ArbiterMsg::Warning {
                round: self.last_round,
            },
        });
        out.push(Action::Note(Note::TokenWarning));
        // Re-arm: if recovery stalls (e.g. the WARNING is lost) we warn
        // again rather than hang forever.
        if let Some(pos) = self.last_q_seen.position(self.id) {
            self.arm_token_wait(pos, out);
        } else {
            self.arm_token_wait(0, out);
        }
    }

    /// The arbiter's own token-wait expired.
    pub(crate) fn on_arbiter_wait(&mut self, out: &mut Outbox) {
        if self.is_arbiter && self.token.is_none() {
            self.start_invalidation(out);
        }
    }

    /// A WARNING arrived (paper §6: "When the arbiter receives a WARNING
    /// message ... it starts a two-phase token invalidation protocol").
    ///
    /// A WARNING is addressed to the node the *warner* believes is the
    /// current arbiter. If we are not acting as arbiter but the warner's
    /// round is at least as fresh as ours, our own election announcement
    /// was lost in transit — accept the role and recover.
    pub(crate) fn on_warning(&mut self, _from: NodeId, round: u64, out: &mut Outbox) {
        if self.is_arbiter {
            self.start_invalidation(out);
            return;
        }
        if !self.recovery_enabled() || round < self.last_round {
            return; // stale warning from an out-of-date node
        }
        self.arbiter = self.id;
        self.become_arbiter(out);
        self.start_invalidation(out);
    }

    /// Phase 1 of the two-phase token invalidation protocol: enquire every
    /// node on the last sealed Q-list plus the previous arbiter (paper §6).
    pub(crate) fn start_invalidation(&mut self, out: &mut Outbox) {
        if !self.recovery_enabled()
            || self.token.is_some()
            || matches!(self.recovery_state, RecoveryState::Enquiring { .. })
        {
            return;
        }
        out.push(Action::Note(Note::InvalidationStarted));
        let mut targets: Vec<NodeId> = self.last_q_seen.nodes().collect();
        if !targets.contains(&self.prev_arbiter) {
            targets.push(self.prev_arbiter);
        }
        // The token also travels through the monitor (§4.1).
        if let Some(m) = self.monitor_cur {
            if !targets.contains(&m) {
                targets.push(m);
            }
        }
        targets.retain(|&t| t != self.id);
        if targets.is_empty() {
            self.recovery_state = RecoveryState::Enquiring {
                pending: Vec::new(),
                waiting: Vec::new(),
                targets: Vec::new(),
                second_round: true,
            };
            self.conclude_invalidation(out);
            return;
        }
        for &t in &targets {
            out.push(Action::Send {
                to: t,
                msg: ArbiterMsg::Enquiry { epoch: self.epoch },
            });
        }
        self.recovery_state = RecoveryState::Enquiring {
            pending: targets.clone(),
            waiting: Vec::new(),
            targets,
            second_round: false,
        };
        let timeout = self
            .cfg
            .recovery
            .as_ref()
            .expect("recovery enabled")
            .enquiry_timeout;
        out.push(Action::SetTimer {
            timer: ArbiterTimer::EnquiryTimeout,
            after: timeout,
        });
    }

    /// Answer an ENQUIRY with our token status; holders suspend until
    /// RESUME (paper §6 phase 1).
    pub(crate) fn on_enquiry(&mut self, from: NodeId, epoch: u64, out: &mut Outbox) {
        if epoch > self.epoch {
            self.epoch = epoch;
        }
        // Remember who is enquiring: should the token arrive here while
        // the enquiry is still open, we self-report (phase 1 would
        // otherwise miss a token that was in flight when it ran).
        self.enquiring_arbiter = Some(from);
        let status = if self.token.is_some() {
            self.suspended = true;
            TokenStatus::HaveToken
        } else if self.had_token_recently {
            TokenStatus::HadToken
        } else if self.want_cs && self.waiting_confirmed {
            TokenStatus::Waiting
        } else {
            TokenStatus::Idle
        };
        out.push(Action::Send {
            to: from,
            msg: ArbiterMsg::EnquiryReply { status },
        });
    }

    /// The token landed here while an enquiry was open: self-report as the
    /// holder and suspend until RESUME.
    pub(crate) fn self_report_token(&mut self, out: &mut Outbox) {
        if !self.recovery_enabled() {
            return;
        }
        if let Some(arbiter) = self.enquiring_arbiter.take() {
            if arbiter != self.id {
                self.suspended = true;
                out.push(Action::Send {
                    to: arbiter,
                    msg: ArbiterMsg::EnquiryReply {
                        status: TokenStatus::HaveToken,
                    },
                });
            }
        }
    }

    /// Collect phase-1 replies at the enquiring arbiter.
    pub(crate) fn on_enquiry_reply(&mut self, from: NodeId, status: TokenStatus, out: &mut Outbox) {
        let RecoveryState::Enquiring {
            pending, waiting, ..
        } = &mut self.recovery_state
        else {
            // Late reply after conclusion; if it claims the token lives,
            // let it resume (the regenerated epoch will win regardless).
            if status == TokenStatus::HaveToken {
                out.push(Action::Send {
                    to: from,
                    msg: ArbiterMsg::Resume,
                });
            }
            return;
        };
        pending.retain(|&p| p != from);
        match status {
            TokenStatus::HaveToken => {
                // Phase 2, token found: resume normal operation (paper §6).
                self.recovery_state = RecoveryState::Idle;
                out.push(Action::CancelTimer(ArbiterTimer::EnquiryTimeout));
                out.push(Action::Send {
                    to: from,
                    msg: ArbiterMsg::Resume,
                });
                out.push(Action::Note(Note::TokenFound));
                self.arm_arbiter_wait(out);
            }
            TokenStatus::Waiting => {
                if !waiting.contains(&from) {
                    waiting.push(from);
                }
                if pending.is_empty() {
                    self.conclude_invalidation(out);
                }
            }
            TokenStatus::HadToken | TokenStatus::Idle => {
                if pending.is_empty() {
                    self.conclude_invalidation(out);
                }
            }
        }
    }

    /// Phase-1 timeout: non-responders are treated as failed (paper §6).
    pub(crate) fn on_enquiry_timeout(&mut self, out: &mut Outbox) {
        if matches!(self.recovery_state, RecoveryState::Enquiring { .. }) {
            self.conclude_invalidation(out);
        }
    }

    /// Phase 2, token lost: mint a new epoch, INVALIDATE the waiters, and
    /// regenerate the token with the waiting nodes at the front of the
    /// Q-list (paper §6).
    pub(crate) fn conclude_invalidation(&mut self, out: &mut Outbox) {
        let RecoveryState::Enquiring {
            waiting,
            targets,
            second_round,
            ..
        } = std::mem::take(&mut self.recovery_state)
        else {
            return;
        };
        out.push(Action::CancelTimer(ArbiterTimer::EnquiryTimeout));
        if self.token.is_some() {
            // The "lost" token arrived (it was merely slow) while replies
            // were being collected: no regeneration needed.
            out.push(Action::Note(Note::TokenFound));
            return;
        }
        if !second_round && !targets.is_empty() {
            // A token that was *in flight* during round one has landed by
            // now (round duration far exceeds a message delay) and its
            // holder either self-reported or will answer this round. Only
            // a silent second round proves real loss.
            for &t in &targets {
                out.push(Action::Send {
                    to: t,
                    msg: ArbiterMsg::Enquiry { epoch: self.epoch },
                });
            }
            self.recovery_state = RecoveryState::Enquiring {
                pending: targets.clone(),
                waiting,
                targets,
                second_round: true,
            };
            let timeout = self
                .cfg
                .recovery
                .as_ref()
                .expect("recovery enabled")
                .enquiry_timeout;
            out.push(Action::SetTimer {
                timer: ArbiterTimer::EnquiryTimeout,
                after: timeout,
            });
            return;
        }
        self.epoch += 1;
        out.push(Action::Note(Note::TokenRegenerated));
        // Every live node must learn the new epoch immediately, or a slow
        // copy of the dead token could still grant a critical section at a
        // node that has not heard of the regeneration.
        out.push(Action::Broadcast {
            msg: ArbiterMsg::Invalidate { epoch: self.epoch },
            except: Vec::new(),
        });
        // Waiting nodes go to the front, in their original Q-list order;
        // non-responders are excluded.
        let mut front: QList = self
            .last_q_seen
            .iter()
            .filter(|e| waiting.contains(&e.node))
            .copied()
            .collect();
        let tail = std::mem::take(&mut self.collect);
        front.append(tail);
        self.collect = front;
        self.token = Some(Token {
            q: QList::new(),
            last_granted: self.lg_cache.clone(),
            round: self.last_round,
            epoch: self.epoch,
            via_monitor: false,
        });
        if !self.is_arbiter {
            self.become_arbiter(out);
        }
        // A slow copy of the old token may still be in flight: until the
        // role next changes hands, self-only seals take the normal path.
        self.self_streak = 0;
        self.regenerated = true;
        self.maybe_arm_collection(out);
    }

    /// The token arrived while a two-phase invalidation was in flight:
    /// abort the enquiry — regular operation resumes.
    pub(crate) fn abort_invalidation_token_arrived(&mut self, out: &mut Outbox) {
        if matches!(self.recovery_state, RecoveryState::Enquiring { .. }) {
            self.recovery_state = RecoveryState::Idle;
            out.push(Action::CancelTimer(ArbiterTimer::EnquiryTimeout));
            out.push(Action::Note(Note::TokenFound));
        }
    }

    /// A NEW-ARBITER from another node supersedes any invalidation this
    /// node was running: custody has visibly moved on.
    pub(crate) fn abort_invalidation_superseded(&mut self, out: &mut Outbox) {
        if matches!(self.recovery_state, RecoveryState::Enquiring { .. }) {
            self.recovery_state = RecoveryState::Idle;
            out.push(Action::CancelTimer(ArbiterTimer::EnquiryTimeout));
        }
    }

    /// A suspended holder may proceed (paper §6 phase 2, token found).
    pub(crate) fn on_resume(&mut self, out: &mut Outbox) {
        self.suspended = false;
        self.enquiring_arbiter = None;
        if self.deferred_pass && !self.in_cs {
            self.deferred_pass = false;
            self.dispatch_token(out);
        }
    }

    /// The token was declared lost: discard any stale-epoch token we might
    /// later receive and keep waiting for the regenerated one (paper §6).
    pub(crate) fn on_invalidate(&mut self, epoch: u64, out: &mut Outbox) {
        if epoch > self.epoch {
            self.epoch = epoch;
        }
        self.enquiring_arbiter = None;
        if let Some(tok) = &self.token {
            if tok.epoch < self.epoch && !self.in_cs {
                self.token = None;
                self.suspended = false;
                self.deferred_pass = false;
                out.push(Action::Note(Note::StaleTokenDiscarded));
            }
        }
        if self.want_cs && !self.in_cs && self.waiting_confirmed {
            // The regenerated token schedules us at the front; re-arm the
            // wait so another loss is also caught.
            self.arm_token_wait(1, out);
        }
    }

    /// After handing the token to a successor arbiter, keep monitoring it
    /// (paper §6, "Failed Arbiter node": "The current arbiter is monitored
    /// by the previous arbiter"). The watch persists — re-armed by every
    /// NEW-ARBITER that re-elects the target and by every PROBE-ACK —
    /// until some *other* node becomes arbiter, at which point that NA's
    /// sealer takes over the watching duty.
    pub(crate) fn watch_handover(&mut self, target: NodeId, out: &mut Outbox) {
        let Some(rc) = &self.cfg.recovery else {
            return;
        };
        if target == self.id {
            return;
        }
        self.watching = Some(target);
        out.push(Action::SetTimer {
            timer: ArbiterTimer::HandoverWatch,
            after: rc.handover_watch,
        });
    }

    /// A NEW-ARBITER arrived: re-arm the watch if it re-elects our target,
    /// drop it if custody moved to another chain.
    pub(crate) fn note_arbiter_observed(&mut self, arbiter: NodeId, out: &mut Outbox) {
        let Some(rc) = &self.cfg.recovery else {
            return;
        };
        let Some(w) = self.watching else {
            return;
        };
        if arbiter == w {
            out.push(Action::SetTimer {
                timer: ArbiterTimer::HandoverWatch,
                after: rc.handover_watch,
            });
        } else {
            self.watching = None;
            out.push(Action::CancelTimer(ArbiterTimer::HandoverWatch));
            out.push(Action::CancelTimer(ArbiterTimer::ProbeTimeout));
        }
    }

    /// Handover watch expired without progress: probe the arbiter.
    pub(crate) fn on_handover_watch(&mut self, out: &mut Outbox) {
        let Some(rc) = &self.cfg.recovery else {
            return;
        };
        let Some(w) = self.watching else {
            return;
        };
        out.push(Action::Send {
            to: w,
            msg: ArbiterMsg::Probe,
        });
        out.push(Action::SetTimer {
            timer: ArbiterTimer::ProbeTimeout,
            after: rc.probe_timeout,
        });
    }

    /// Any live node answers a probe, reporting whether it actually holds
    /// the arbiter role.
    pub(crate) fn on_probe(&mut self, from: NodeId, out: &mut Outbox) {
        out.push(Action::Send {
            to: from,
            msg: ArbiterMsg::ProbeAck {
                arbiter: self.is_arbiter,
            },
        });
    }

    /// The probed arbiter is alive. If it does not consider itself the
    /// arbiter, the NEW-ARBITER announcing its election was lost: re-send
    /// it point-to-point (the watcher is the sealer, so its `last_q_seen`
    /// and `last_round` are exactly that announcement).
    pub(crate) fn on_probe_ack(&mut self, from: NodeId, arbiter: bool, out: &mut Outbox) {
        let Some(rc) = &self.cfg.recovery else {
            return;
        };
        out.push(Action::CancelTimer(ArbiterTimer::ProbeTimeout));
        if self.watching != Some(from) {
            return;
        }
        if !arbiter {
            out.push(Action::Send {
                to: from,
                msg: ArbiterMsg::NewArbiter {
                    arbiter: from,
                    q: self.last_q_seen.clone(),
                    prev: self.prev_arbiter,
                    round: self.last_round,
                    counter: self.na_counter,
                    epoch: self.epoch,
                    monitor: self.monitor_cur,
                },
            });
        }
        out.push(Action::SetTimer {
            timer: ArbiterTimer::HandoverWatch,
            after: rc.handover_watch,
        });
    }

    /// No PROBE-ACK: the arbiter failed; the previous arbiter proclaims
    /// itself the current arbiter and recovers the token (paper §6).
    pub(crate) fn on_probe_timeout(&mut self, out: &mut Outbox) {
        if !self.recovery_enabled() || self.watching.is_none() {
            return;
        }
        self.watching = None;
        out.push(Action::Note(Note::ArbiterTakeover));
        self.arbiter = self.id;
        self.last_round += 1;
        out.push(Action::Broadcast {
            msg: ArbiterMsg::NewArbiter {
                arbiter: self.id,
                q: self.last_q_seen.clone(),
                prev: self.id,
                round: self.last_round,
                counter: self.na_counter,
                epoch: self.epoch,
                monitor: self.monitor_cur,
            },
            except: Vec::new(),
        });
        if !self.is_arbiter {
            self.become_arbiter(out);
        }
        self.start_invalidation(out);
    }
}
