//! The Banerjee–Chrysanthis rotating-arbiter token-passing algorithm
//! (ICDCS 1996) — the paper's primary contribution.
//!
//! # Algorithm sketch
//!
//! A single PRIVILEGE *token* circulates; only the holder may execute its
//! critical section. The token carries an ordered *Q-list* of scheduled
//! requesters. One node at a time is the *arbiter*: it batches REQUEST
//! messages during a timed *request collection phase*, seals them into the
//! token's Q-list, sends the token to the list's head, and broadcasts
//! NEW-ARBITER naming the list's *tail* as the next arbiter. The old
//! arbiter forwards stragglers to its successor for a bounded *request
//! forwarding phase*, after which late requests are dropped (requesters
//! detect the omission in the NEW-ARBITER Q-list and retransmit).
//!
//! At heavy load this costs `3 − 2/N` messages per critical section
//! (approaching 3); at light load `(N² − 1)/N` (approaching `N`).
//!
//! # Variants
//!
//! * **Basic** — [`ArbiterConfig::basic`] (paper §2).
//! * **Starvation-free** — [`ArbiterConfig::starvation_free`] adds the
//!   *monitor* node of §4.1: requests forwarded more than τ times are
//!   dropped and escalated to the monitor, which the token visits with an
//!   adaptive period derived from the average Q-list size.
//! * **Fault-tolerant** — [`ArbiterConfig::fault_tolerant`] additionally
//!   enables §6 recovery: lost-request retransmission, the two-phase token
//!   invalidation protocol (WARNING/ENQUIRY/RESUME/INVALIDATE), and
//!   previous-arbiter takeover of a failed arbiter.

mod config;
mod messages;
mod monitor;
mod node;
mod recovery;

pub use config::{ArbiterConfig, Fairness, MonitorConfig, MonitorPeriod, RecoveryConfig};
pub use messages::{ArbiterMsg, ArbiterTimer, Token, TokenStatus};
pub use node::{ArbiterNode, SELF_GRANT_ANNOUNCE_EVERY};
