//! Starvation-free variant: the monitor node (paper §4.1).
//!
//! These methods extend [`ArbiterNode`]; they are inert unless
//! [`crate::arbiter::ArbiterConfig::monitor`] is set.

use crate::arbiter::config::MonitorPeriod;
use crate::arbiter::messages::ArbiterMsg;
use crate::arbiter::node::{ArbiterNode, Outbox};
use crate::event::{Action, Note};
use crate::qlist::Entry;
use crate::types::{NodeId, Priority, SeqNum};

impl ArbiterNode {
    /// Records an observed Q-list length in the moving window used by the
    /// adaptive monitor period (paper §4.1: "each node keeps track of the
    /// size of the Q-list by observing the NEW-ARBITER messages").
    pub(crate) fn observe_q_len(&mut self, len: usize) {
        let cap = match self.cfg.monitor.as_ref().map(|m| m.period) {
            Some(MonitorPeriod::Adaptive { window }) => window.max(1),
            _ => 16,
        };
        if self.q_window.len() == cap {
            self.q_window.pop_front();
        }
        self.q_window.push_back(len as u32);
    }

    /// The moving-window average Q-list size (1.0 when nothing observed).
    pub(crate) fn avg_q_len(&self) -> f64 {
        if self.q_window.is_empty() {
            return 1.0;
        }
        let sum: u64 = self.q_window.iter().map(|&v| u64::from(v)).sum();
        sum as f64 / self.q_window.len() as f64
    }

    /// Decides whether this seal must route the token through the monitor:
    /// the NEW-ARBITER counter has reached the period (paper §4.1).
    pub(crate) fn should_route_via_monitor(&self) -> bool {
        let Some(mc) = &self.cfg.monitor else {
            return false;
        };
        let monitor = self.monitor_cur.unwrap_or(mc.monitor);
        if monitor == self.id {
            // We are the monitor: our seal already merged the stored
            // requests; no detour needed.
            return false;
        }
        let next = self.na_counter.saturating_add(1);
        match mc.period {
            MonitorPeriod::Adaptive { .. } => f64::from(next) >= self.avg_q_len().ceil(),
            MonitorPeriod::Fixed { every } => next >= every.max(1),
        }
    }

    /// Sends the sealed token to the monitor instead of the Q-list head.
    /// No NEW-ARBITER is broadcast — the monitor broadcasts it after
    /// augmenting the Q-list (paper §4.1).
    pub(crate) fn route_via_monitor(&mut self, round: u64, out: &mut Outbox) {
        let monitor = self
            .monitor_cur
            .expect("route_via_monitor requires a monitor");
        {
            let tok = self.token.as_mut().expect("token present while sealing");
            tok.via_monitor = true;
        }
        // If we are scheduled in the outgoing list, remember it so the
        // token-wait timeout still guards us (recovery).
        if self.want_cs && !self.in_cs {
            let tok = self.token.as_ref().expect("token present");
            if let Some(pos) = tok.q.position(self.id) {
                self.waiting_confirmed = true;
                self.arm_token_wait(pos + 1, out);
            }
        }
        let tok = self.token.take().expect("token present while sealing");
        self.note_token_departure();
        out.push(Action::Send {
            to: monitor,
            msg: ArbiterMsg::Privilege(tok),
        });
        let _ = round;
        self.is_arbiter = false;
        self.begin_forwarding(monitor, out);
        self.watch_handover(monitor, out);
    }

    /// The monitor received a routed token: append stored requests, reset
    /// the period counter, broadcast NEW-ARBITER, and send the token to the
    /// head (paper §4.1).
    pub(crate) fn monitor_flush(&mut self, out: &mut Outbox) {
        out.push(Action::Note(Note::MonitorVisit));
        // Merge stored requests (stale ones filtered against the token).
        let stored = std::mem::take(&mut self.monitor_store);
        let mut merged = 0u32;
        {
            let tok = self.token.as_mut().expect("monitor_flush requires token");
            tok.via_monitor = false;
            for e in stored {
                if e.seq > tok.last_granted_for(e.node) && !tok.q.contains(e.node) {
                    tok.q.push_back(e);
                    merged += 1;
                }
            }
            tok.round += 1;
        }
        if merged > 0 {
            out.push(Action::Note(Note::MonitorFlush { merged }));
        }
        // Rotate the monitor role if configured (paper §5.1).
        let rotate = self.cfg.monitor.as_ref().is_some_and(|m| m.rotate);
        if rotate {
            let next = NodeId::from_index((self.id.index() + 1) % self.n);
            self.monitor_cur = Some(next);
        }
        self.na_counter = 0;

        let (q, round, epoch) = {
            let tok = self.token.as_ref().expect("token present");
            (tok.q.clone(), tok.round, tok.epoch)
        };
        let (Some(head), Some(new_arbiter)) = (q.head(), q.tail()) else {
            // A routed token with an empty list (possible only through a
            // corrupted or forged frame): park it and act as its arbiter.
            if !self.is_arbiter {
                self.arbiter = self.id;
                self.become_arbiter(out);
            } else {
                self.maybe_arm_collection(out);
            }
            return;
        };

        out.push(Action::Broadcast {
            msg: ArbiterMsg::NewArbiter {
                arbiter: new_arbiter,
                q: q.clone(),
                prev: self.id,
                round,
                counter: 0,
                epoch,
                monitor: self.monitor_cur,
            },
            except: Vec::new(),
        });
        self.last_round = round;
        self.last_q_seen = q.clone();
        self.prev_arbiter = self.id;
        self.arbiter = new_arbiter;

        if self.want_cs && !self.in_cs {
            if let Some(pos) = q.position(self.id) {
                self.waiting_confirmed = true;
                self.miss_count = 0;
                if pos > 0 {
                    self.arm_token_wait(pos, out);
                }
            }
        }

        if head == self.id {
            if self.want_cs {
                self.enter_cs(out);
            } else {
                out.push(Action::Note(Note::SpuriousGrant));
                self.advance_token(out);
            }
        } else {
            let tok = self.token.take().expect("token present");
            self.note_token_departure();
            out.push(Action::Send {
                to: head,
                msg: ArbiterMsg::Privilege(tok),
            });
        }

        if new_arbiter == self.id {
            if !self.is_arbiter {
                self.become_arbiter(out);
            }
        } else {
            if self.is_arbiter {
                self.is_arbiter = false;
                self.window_armed = false;
            }
            self.watch_handover(new_arbiter, out);
            let _ = round;
        }
    }

    /// A starving requester resubmitted directly to the monitor
    /// (paper §4.1). Stored until the next token visit.
    pub(crate) fn on_monitor_submit(
        &mut self,
        requester: NodeId,
        seq: SeqNum,
        priority: Priority,
        out: &mut Outbox,
    ) {
        if self.monitor_cur != Some(self.id) {
            // The monitor role moved; treat as an ordinary request so the
            // submission is not lost.
            self.on_request_like(requester, seq, priority, out);
            return;
        }
        if self.is_stale(requester, seq) {
            out.push(Action::Note(Note::StaleRequestDiscarded { requester, seq }));
            return;
        }
        if self.is_arbiter {
            self.collect_remote(Entry::with_priority(requester, seq, priority), out);
        } else {
            self.monitor_store
                .push_back(Entry::with_priority(requester, seq, priority));
        }
    }

    /// Routes a misdelivered monitor submission like a plain request.
    fn on_request_like(
        &mut self,
        requester: NodeId,
        seq: SeqNum,
        priority: Priority,
        out: &mut Outbox,
    ) {
        if self.is_arbiter {
            if !self.is_stale(requester, seq) {
                self.collect_remote(Entry::with_priority(requester, seq, priority), out);
            }
        } else if let Some(next) = self.forwarding_to {
            out.push(Action::Send {
                to: next,
                msg: ArbiterMsg::Request {
                    requester,
                    seq,
                    priority,
                    hops: 1,
                },
            });
        } else {
            out.push(Action::Note(Note::RequestDropped { requester }));
        }
    }
}
