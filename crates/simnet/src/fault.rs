//! Fault injection plans: node crashes/recoveries, loss windows, and
//! targeted token drops (paper §6's failure scenarios).

use serde::{Deserialize, Serialize};
use tokq_protocol::types::NodeId;

use crate::time::SimTime;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Node `node` crashes at `at`, losing all volatile state; in-flight
    /// messages to it are discarded on delivery.
    Crash {
        /// When the crash happens.
        at: SimTime,
        /// The crashing node.
        node: NodeId,
    },
    /// Node `node` restarts at `at` with fresh state.
    Recover {
        /// When the recovery happens.
        at: SimTime,
        /// The recovering node.
        node: NodeId,
    },
    /// Every message sent in `[from, until)` is dropped with probability
    /// `prob` (on top of the network's base loss).
    LossWindow {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Drop probability inside the window.
        prob: f64,
    },
    /// Drop the next `count` token-carrying messages sent at or after
    /// `at` — the paper's "PRIVILEGE message was dropped" scenario,
    /// injected deterministically.
    DropToken {
        /// Earliest time the drops apply.
        at: SimTime,
        /// Number of token messages to drop.
        count: u32,
    },
}

/// A network partition: during `[from, until)` messages crossing between
/// the `island` and the rest of the system are dropped in both directions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive) — the partition heals here.
    pub until: SimTime,
    /// Nodes cut off from the remainder.
    pub island: Vec<NodeId>,
}

/// A collection of scheduled faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan with no faults (the paper's fault-free experiments).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault, returning `self` for chaining.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Crash `node` at `at`.
    #[must_use]
    pub fn crash(self, node: NodeId, at: SimTime) -> Self {
        self.with(Fault::Crash { at, node })
    }

    /// Recover `node` at `at`.
    #[must_use]
    pub fn recover(self, node: NodeId, at: SimTime) -> Self {
        self.with(Fault::Recover { at, node })
    }

    /// Drop the next `count` token messages at or after `at`.
    #[must_use]
    pub fn drop_token(self, at: SimTime, count: u32) -> Self {
        self.with(Fault::DropToken { at, count })
    }

    /// Isolate `island` from the rest of the system during `[from, until)`.
    #[must_use]
    pub fn partition(mut self, island: Vec<NodeId>, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(Partition {
            from,
            until,
            island,
        });
        self
    }

    /// True when a message from `a` to `b` at time `now` crosses an active
    /// partition boundary.
    pub fn crosses_partition(&self, a: NodeId, b: NodeId, now: SimTime) -> bool {
        self.partitions.iter().any(|p| {
            now >= p.from && now < p.until && (p.island.contains(&a) != p.island.contains(&b))
        })
    }

    /// All crash/recover events, for scheduling.
    pub fn node_events(&self) -> impl Iterator<Item = (SimTime, NodeId, bool)> + '_ {
        self.faults.iter().filter_map(|f| match *f {
            Fault::Crash { at, node } => Some((at, node, true)),
            Fault::Recover { at, node } => Some((at, node, false)),
            _ => None,
        })
    }

    /// Extra loss probability applying to a message sent at `now`.
    pub fn extra_loss_at(&self, now: SimTime) -> f64 {
        let mut p = 0.0f64;
        for f in &self.faults {
            if let Fault::LossWindow { from, until, prob } = *f {
                if now >= from && now < until {
                    p = p.max(prob);
                }
            }
        }
        p
    }

    /// All token-drop directives.
    pub fn token_drops(&self) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.faults.iter().filter_map(|f| match *f {
            Fault::DropToken { at, count } => Some((at, count)),
            _ => None,
        })
    }

    /// True when the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.partitions.is_empty()
    }

    /// Splits the plan in one pass into what the simulator consults per
    /// message: crash/recover events go to `node_event` in plan order,
    /// token drops come back as a cursor, and loss windows apart from
    /// every other fault.
    pub(crate) fn index(
        &self,
        mut node_event: impl FnMut(SimTime, NodeId, bool),
    ) -> (TokenDrops, LossWindows) {
        let mut drops = Vec::new();
        let mut windows = Vec::new();
        for (i, f) in self.faults.iter().enumerate() {
            match *f {
                Fault::Crash { at, node } => node_event(at, node, true),
                Fault::Recover { at, node } => node_event(at, node, false),
                Fault::LossWindow { from, until, prob } => windows.push((from, until, prob)),
                Fault::DropToken { at, count } => {
                    // One allocation for a plan of many drops, none for
                    // a plan of none.
                    if drops.is_empty() {
                        drops.reserve(self.faults.len() - i);
                    }
                    drops.push((at, count));
                }
            }
        }
        (TokenDrops::new(drops), LossWindows(windows))
    }
}

/// A plan's [`Fault::DropToken`] directives as a cursor over time.
///
/// Token messages are sent at nondecreasing times, so once a directive's
/// time has passed it stays active for the rest of the run, and which
/// active directive pays for a drop never changes a later decision. The
/// cursor therefore folds each directive's count into one `available`
/// total as time passes it: every lookup is amortised O(1) however long
/// the plan is.
#[derive(Debug, Clone, Default)]
pub(crate) struct TokenDrops {
    /// Directives sorted by time.
    drops: Vec<(SimTime, u32)>,
    /// Directives before this index are folded into `available`.
    next: usize,
    /// Drops owed by directives whose time has come.
    available: u64,
}

impl TokenDrops {
    fn new(mut drops: Vec<(SimTime, u32)>) -> Self {
        if !drops.is_sorted_by_key(|d| d.0) {
            drops.sort_by_key(|d| d.0);
        }
        TokenDrops {
            drops,
            next: 0,
            available: 0,
        }
    }

    /// Whether the token message sent at `now` is dropped, spending one
    /// drop if so. `now` must not decrease between calls.
    pub(crate) fn take(&mut self, now: SimTime) -> bool {
        while let Some(&(at, count)) = self.drops.get(self.next) {
            if at > now {
                break;
            }
            self.available += u64::from(count);
            self.next += 1;
        }
        if self.available == 0 {
            return false;
        }
        self.available -= 1;
        true
    }
}

/// Only the [`Fault::LossWindow`] directives of a plan, so a message's
/// loss lookup never walks the plan's other faults.
#[derive(Debug, Clone, Default)]
pub(crate) struct LossWindows(Vec<(SimTime, SimTime, f64)>);

impl LossWindows {
    /// Extra loss probability applying to a message sent at `now`; the
    /// same value as [`FaultPlan::extra_loss_at`].
    pub(crate) fn at(&self, now: SimTime) -> f64 {
        let mut p = 0.0f64;
        for &(from, until, prob) in &self.0 {
            if now >= from && now < until {
                p = p.max(prob);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let plan = FaultPlan::none()
            .crash(NodeId(2), SimTime::from_secs_f64(1.0))
            .recover(NodeId(2), SimTime::from_secs_f64(2.0))
            .drop_token(SimTime::from_secs_f64(0.5), 1);
        assert!(!plan.is_empty());
        let events: Vec<_> = plan.node_events().collect();
        assert_eq!(
            events,
            vec![
                (SimTime::from_secs_f64(1.0), NodeId(2), true),
                (SimTime::from_secs_f64(2.0), NodeId(2), false)
            ]
        );
        assert_eq!(
            plan.token_drops().collect::<Vec<_>>(),
            vec![(SimTime::from_secs_f64(0.5), 1)]
        );
    }

    #[test]
    fn partition_cuts_both_directions_within_window() {
        let plan = FaultPlan::none().partition(
            vec![NodeId(0), NodeId(1)],
            SimTime::from_secs_f64(5.0),
            SimTime::from_secs_f64(10.0),
        );
        let t = SimTime::from_secs_f64(7.0);
        assert!(plan.crosses_partition(NodeId(0), NodeId(2), t));
        assert!(plan.crosses_partition(NodeId(2), NodeId(1), t));
        // Same side: allowed.
        assert!(!plan.crosses_partition(NodeId(0), NodeId(1), t));
        assert!(!plan.crosses_partition(NodeId(2), NodeId(3), t));
        // Outside the window: healed.
        assert!(!plan.crosses_partition(NodeId(0), NodeId(2), SimTime::from_secs_f64(10.0)));
        assert!(!plan.crosses_partition(NodeId(0), NodeId(2), SimTime::from_secs_f64(1.0)));
        assert!(!plan.is_empty());
    }

    #[test]
    fn loss_window_bounds() {
        let plan = FaultPlan::none().with(Fault::LossWindow {
            from: SimTime::from_secs_f64(1.0),
            until: SimTime::from_secs_f64(2.0),
            prob: 0.7,
        });
        assert_eq!(plan.extra_loss_at(SimTime::from_secs_f64(0.9)), 0.0);
        assert_eq!(plan.extra_loss_at(SimTime::from_secs_f64(1.5)), 0.7);
        assert_eq!(plan.extra_loss_at(SimTime::from_secs_f64(2.0)), 0.0);
    }

    #[test]
    fn overlapping_windows_take_max() {
        let plan = FaultPlan::none()
            .with(Fault::LossWindow {
                from: SimTime::ZERO,
                until: SimTime::from_secs_f64(10.0),
                prob: 0.1,
            })
            .with(Fault::LossWindow {
                from: SimTime::from_secs_f64(5.0),
                until: SimTime::from_secs_f64(6.0),
                prob: 0.9,
            });
        assert_eq!(plan.extra_loss_at(SimTime::from_secs_f64(5.5)), 0.9);
        assert_eq!(plan.extra_loss_at(SimTime::from_secs_f64(7.0)), 0.1);
    }

    #[test]
    fn index_passes_node_events_in_plan_order() {
        let t = SimTime::from_secs_f64;
        let plan = FaultPlan::none()
            .recover(NodeId(1), t(3.0))
            .drop_token(t(9.0), 2)
            .crash(NodeId(1), t(2.0))
            .drop_token(t(1.0), 1);
        let mut events = Vec::new();
        let (mut drops, windows) = plan.index(|at, node, crash| events.push((at, node, crash)));
        assert_eq!(events, plan.node_events().collect::<Vec<_>>());
        assert_eq!(windows.at(t(5.0)), 0.0);
        // The later-listed, earlier-timed directive fires first.
        assert!(!drops.take(t(0.5)));
        assert!(drops.take(t(1.0)));
        assert!(!drops.take(t(8.0)));
        assert!(drops.take(t(9.5)));
        assert!(drops.take(t(9.5)));
        assert!(!drops.take(t(100.0)));
    }

    mod prop {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// The simulator's token-drop rule before the plan was indexed:
        /// the first directive in plan order that is active and not yet
        /// spent pays for the drop.
        fn first_active_scan(drops: &mut [(SimTime, u32)], now: SimTime) -> bool {
            for drop in drops {
                if now >= drop.0 && drop.1 > 0 {
                    drop.1 -= 1;
                    return true;
                }
            }
            false
        }

        proptest! {
            #[test]
            fn token_drop_cursor_matches_linear_scan(
                directives in vec((0u64..40, 0u32..4), 0..12),
                windows in vec((0u64..40, 0u64..20, 0.0f64..1.0), 0..4),
                gaps in vec(0u64..6, 0..80),
            ) {
                let mut plan = FaultPlan::none();
                for &(from, len, prob) in &windows {
                    plan = plan.with(Fault::LossWindow {
                        from: SimTime::from_nanos(from),
                        until: SimTime::from_nanos(from + len),
                        prob,
                    });
                }
                for &(at, count) in &directives {
                    plan = plan.drop_token(SimTime::from_nanos(at), count);
                }
                let mut reference: Vec<(SimTime, u32)> = plan.token_drops().collect();
                let (mut cursor, loss) = plan.index(|_, _, _| unreachable!("no node events"));
                let mut now = 0u64;
                for gap in gaps {
                    now += gap;
                    let t = SimTime::from_nanos(now);
                    prop_assert_eq!(cursor.take(t), first_active_scan(&mut reference, t));
                    prop_assert_eq!(loss.at(t), plan.extra_loss_at(t));
                }
            }

            #[test]
            fn loss_windows_match_extra_loss_at(
                windows in vec((0u64..100, 0u64..50, 0.0f64..1.0), 0..8),
                probes in vec(0u64..160, 1..40),
            ) {
                let plan = windows.iter().fold(FaultPlan::none(), |plan, &(from, len, prob)| {
                    plan.with(Fault::LossWindow {
                        from: SimTime::from_nanos(from),
                        until: SimTime::from_nanos(from + len),
                        prob,
                    })
                });
                let (_, loss) = plan.index(|_, _, _| unreachable!("no node events"));
                for t in probes {
                    let t = SimTime::from_nanos(t);
                    prop_assert_eq!(loss.at(t), plan.extra_loss_at(t));
                }
            }
        }
    }
}

/// True for message kinds that carry the token (or a privilege grant) on
/// the wire. These are the messages whose loss the paper's §6 recovery
/// machinery exists to survive, so the model checker's default drop
/// budget targets exactly them. (Duplication is gated separately, on
/// [`tokq_protocol::api::ProtocolMessage::duplication_tolerant`].)
pub fn is_token_kind(kind: &str) -> bool {
    kind == "PRIVILEGE" || kind == "TOKEN"
}

/// Budgeted fault branching for the model checker ([`crate::explore`]).
///
/// Where [`FaultPlan`] injects *scripted* faults at fixed virtual times
/// into one simulated execution, `FaultBudget` bounds how many faults of
/// each class the explorer may inject *anywhere*: at every decision level
/// the checker also branches on crashing a node, recovering a crashed one,
/// dropping an in-flight token message, or duplicating a
/// duplication-tolerant message, as long as the matching budget is not yet
/// spent along the current path. Budgets are per-path, so `crashes: 1` means "every
/// schedule containing at most one crash", not one crash total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct FaultBudget {
    /// Node crashes the explorer may inject along one path.
    pub crashes: u32,
    /// Recoveries of crashed nodes the explorer may inject along one path.
    pub recoveries: u32,
    /// In-flight message drops (token-carrying messages only, unless
    /// [`FaultBudget::drop_any`] is set).
    pub drops: u32,
    /// In-flight message duplications. Only messages whose handlers
    /// declare themselves idempotent
    /// ([`tokq_protocol::api::ProtocolMessage::duplication_tolerant`]) are
    /// ever duplicated: the no-duplication channel assumption is not
    /// specific to tokens (e.g. Ricart–Agrawala counts REPLYs and Maekawa
    /// counts LOCKED votes with plain counters), so duplicating an
    /// intolerant message would manufacture violations of an assumption
    /// the algorithm never claimed to survive. For such protocols this
    /// budget is inert.
    pub duplicates: u32,
    /// Widen [`FaultBudget::drops`] to every message kind instead of just
    /// token carriers.
    pub drop_any: bool,
}

impl FaultBudget {
    /// No fault injection (the default).
    pub const NONE: FaultBudget = FaultBudget {
        crashes: 0,
        recoveries: 0,
        drops: 0,
        duplicates: 0,
        drop_any: false,
    };

    /// True if at least one budget class is non-zero.
    pub fn any(&self) -> bool {
        self.crashes > 0 || self.recoveries > 0 || self.drops > 0 || self.duplicates > 0
    }
}
