//! Threaded runtime for the Banerjee–Chrysanthis token-passing distributed
//! mutex: the *production* face of the reproduction.
//!
//! The same sans-io state machine that regenerates the paper's figures in
//! the simulator here runs on real threads: each node has an event loop
//! with real timers, messages travel as binary frames through an
//! (optionally delayed and lossy) channel transport, and applications take
//! the lock through RAII guards.
//!
//! # Quickstart
//!
//! ```
//! use tokq_core::Cluster;
//!
//! let cluster = Cluster::builder(3).build();
//! let handle = cluster.handle(0).unwrap();
//! {
//!     let _guard = handle.lock().unwrap(); // distributed critical section
//! }
//! cluster.shutdown();
//! ```
//!
//! # Multi-resource locking
//!
//! A cluster can run several independent protocol instances (**shards**)
//! over one transport mesh and serialize many named resources at once:
//!
//! ```
//! use tokq_core::Cluster;
//!
//! let cluster = Cluster::builder(3).shards(4).build();
//! {
//!     let _accounts = cluster.resource("accounts/7").lock().unwrap();
//!     // a resource on another shard locks concurrently
//! }
//! cluster.shutdown();
//! ```
//!
//! # Fault tolerance
//!
//! Clusters default to [`tokq_protocol::arbiter::ArbiterConfig::fault_tolerant`],
//! enabling the paper's §4.1 starvation-free monitor and §6 recovery
//! (token-loss detection, two-phase invalidation, arbiter takeover).
//! [`Cluster::crash`] and [`Cluster::recover`] inject real node failures.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod cluster;
pub mod fault;
mod inbox;
pub mod metrics;
mod node;
pub mod service;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use chaos::{soak, SafetyChecker, SoakOptions, SoakReport};
pub use cluster::{Cluster, ClusterBuilder, LockGuard, MutexHandle, ResourceHandle};
pub use fault::FaultPanel;
pub use metrics::ClusterMetrics;
pub use service::{FaultError, LockError, ResourceId, ShardId};
pub use transport::NetOptions;
pub use wire::{decode, encode, WireError};
