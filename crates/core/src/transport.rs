//! In-process transports moving encoded frames between node threads.
//!
//! Transports are **shard-oblivious**: a frame is an opaque byte string
//! whose [`crate::wire`] header already carries the shard tag, so one
//! transport mesh serves every protocol instance of a sharded cluster and
//! demultiplexing happens in the node event loop, not here.
//!
//! The default [`ChannelTransport`] delivers frames over crossbeam
//! channels, optionally through a network thread that applies configurable
//! delay and loss — the same unreliability surface the simulator models,
//! but in real time against real threads. On top of the static
//! [`NetOptions`], every frame consults a runtime-mutable
//! [`FaultPanel`]: blocked links (partitions)
//! and injected loss bursts are applied at send time, mirroring the
//! simulator's partition semantics.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use tokq_obs::{Counter, Gauge, Obs, Source};
use tokq_protocol::types::NodeId;

use crate::fault::FaultPanel;

/// Network behaviour applied by the transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetOptions {
    /// Fixed delivery delay applied to every frame.
    pub delay: Duration,
    /// Additional uniformly-distributed jitter on top of `delay`.
    pub jitter: Duration,
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Seed for the loss/jitter stream.
    pub seed: u64,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 0.0,
            seed: 1,
        }
    }
}

impl NetOptions {
    /// Instant, reliable delivery (the default).
    pub fn instant() -> Self {
        Self::default()
    }

    /// Delayed delivery with jitter.
    pub fn delayed(delay: Duration, jitter: Duration) -> Self {
        NetOptions {
            delay,
            jitter,
            ..Self::default()
        }
    }

    /// Lossy delivery.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a probability.
    pub fn lossy(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }
}

/// Anything that can carry an envelope toward its destination node.
///
/// Implemented by the in-process [`ChannelTransport`] and by the TCP
/// transport in [`crate::tcp`]; node event loops are generic over it.
pub trait Wire: Send + Sync + 'static {
    /// Best-effort delivery of one envelope.
    ///
    /// **Must never block the caller.** Protocol threads call this while
    /// driving request collection and token forwarding; an
    /// implementation that connects, or writes into a socket that can
    /// stall, couples every shard's latency to the slowest peer. The TCP
    /// transport writes into an already-established nonblocking socket
    /// when nothing is pending for that peer, and otherwise enqueues into
    /// a bounded per-peer outbox for a writer thread; the channel
    /// transport forwards over an unbounded in-process channel.
    fn send(&self, env: Envelope);
}

/// A frame addressed to a node.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Encoded message frame.
    pub frame: Bytes,
}

/// Delivers envelopes to per-node inboxes, applying [`NetOptions`].
///
/// Frames pass through a dedicated network thread when any delay, jitter,
/// or loss is configured; otherwise they are forwarded synchronously.
pub struct ChannelTransport {
    direct: Vec<Sender<Envelope>>,
    net_tx: Option<Sender<Envelope>>,
    net_thread: Option<std::thread::JoinHandle<()>>,
    panel: FaultPanel,
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("nodes", &self.direct.len())
            .field("has_net_thread", &self.net_thread.is_some())
            .finish()
    }
}

struct Delayed {
    due: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by due time.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

// SplitMix64, same as the simulator's.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn next_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Transport-level counters the network thread maintains.
struct NetStats {
    /// Frames dropped by simulated loss.
    dropped: Counter,
    /// Frames delivered after their delay elapsed.
    delivered: Counter,
    /// Frames currently queued in the delay heap.
    inflight: Gauge,
}

impl NetStats {
    fn on(obs: &Obs) -> Self {
        NetStats {
            dropped: obs.registry().counter("net_dropped"),
            delivered: obs.registry().counter("net_delivered"),
            inflight: obs.registry().gauge("net_inflight"),
        }
    }
}

impl ChannelTransport {
    /// Builds a transport delivering into `inboxes` under `opts`.
    pub fn new(inboxes: Vec<Sender<Envelope>>, opts: NetOptions) -> Self {
        Self::with_obs(inboxes, opts, &Obs::disabled(Source::Runtime))
    }

    /// Like [`ChannelTransport::new`], recording loss/delay counters
    /// (`net_dropped`, `net_delivered`, `net_inflight`) into `obs`.
    pub fn with_obs(inboxes: Vec<Sender<Envelope>>, opts: NetOptions, obs: &Obs) -> Self {
        let panel = FaultPanel::new(inboxes.len(), obs);
        Self::with_panel(inboxes, opts, obs, panel)
    }

    /// Like [`ChannelTransport::with_obs`], sharing an externally owned
    /// [`FaultPanel`] so partitions and loss bursts can be injected while
    /// the transport runs.
    pub fn with_panel(
        inboxes: Vec<Sender<Envelope>>,
        opts: NetOptions,
        obs: &Obs,
        panel: FaultPanel,
    ) -> Self {
        let needs_thread =
            opts.delay > Duration::ZERO || opts.jitter > Duration::ZERO || opts.loss > 0.0;
        if !needs_thread {
            return ChannelTransport {
                direct: inboxes,
                net_tx: None,
                net_thread: None,
                panel,
            };
        }
        let stats = NetStats::on(obs);
        let (tx, rx) = unbounded::<Envelope>();
        let thread_panel = panel.clone();
        let thread = std::thread::Builder::new()
            .name("tokq-net".into())
            .spawn(move || net_thread(rx, inboxes, opts, stats, thread_panel))
            .expect("spawn network thread");
        ChannelTransport {
            direct: Vec::new(),
            net_tx: Some(tx),
            net_thread: Some(thread),
            panel,
        }
    }

    /// The fault panel this transport consults on every frame.
    pub fn fault_panel(&self) -> &FaultPanel {
        &self.panel
    }

    /// Sends one envelope; delivery is best-effort (dead inboxes,
    /// simulated losses, and faulted links are silently dropped).
    pub fn send(&self, env: Envelope) {
        if let Some(tx) = &self.net_tx {
            let _ = tx.send(env);
        } else {
            if !self.panel.admits(env.from.index(), env.to.index()) {
                return;
            }
            if let Some(inbox) = self.direct.get(env.to.index()) {
                let _ = inbox.send(env);
            }
        }
    }
}

impl ChannelTransport {
    /// Stops the network thread (if any), dropping queued frames.
    pub fn shutdown(&mut self) {
        self.net_tx = None;
        if let Some(t) = self.net_thread.take() {
            let _ = t.join();
        }
    }
}

impl Wire for ChannelTransport {
    fn send(&self, env: Envelope) {
        ChannelTransport::send(self, env);
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn net_thread(
    rx: Receiver<Envelope>,
    inboxes: Vec<Sender<Envelope>>,
    opts: NetOptions,
    stats: NetStats,
    panel: FaultPanel,
) {
    let mut heap: BinaryHeap<Delayed> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut rng = opts.seed;
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|d| d.due <= now) {
            let d = heap.pop().expect("peeked");
            stats.inflight.sub(1);
            stats.delivered.inc();
            if let Some(inbox) = inboxes.get(d.env.to.index()) {
                let _ = inbox.send(d.env);
            }
        }
        let wait = heap
            .peek()
            .map(|d| d.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(env) => {
                if !panel.admits(env.from.index(), env.to.index()) {
                    continue;
                }
                if opts.loss > 0.0 && next_f64(&mut rng) < opts.loss {
                    stats.dropped.inc();
                    continue;
                }
                let jitter = if opts.jitter > Duration::ZERO {
                    opts.jitter.mul_f64(next_f64(&mut rng))
                } else {
                    Duration::ZERO
                };
                seq += 1;
                stats.inflight.add(1);
                heap.push(Delayed {
                    due: Instant::now() + opts.delay + jitter,
                    seq,
                    env,
                });
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Flush what remains, then exit.
                while let Some(d) = heap.pop() {
                    std::thread::sleep(d.due.saturating_duration_since(Instant::now()));
                    stats.inflight.sub(1);
                    stats.delivered.inc();
                    if let Some(inbox) = inboxes.get(d.env.to.index()) {
                        let _ = inbox.send(d.env);
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(to: u32, payload: &[u8]) -> Envelope {
        Envelope {
            from: NodeId(0),
            to: NodeId(to),
            frame: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn direct_transport_delivers_synchronously() {
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(vec![tx], NetOptions::instant());
        t.send(env(0, b"hello"));
        let got = rx.try_recv().expect("delivered");
        assert_eq!(&got.frame[..], b"hello");
    }

    #[test]
    fn delayed_transport_takes_time() {
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(
            vec![tx],
            NetOptions::delayed(Duration::from_millis(30), Duration::ZERO),
        );
        let start = Instant::now();
        t.send(env(0, b"x"));
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert_eq!(&got.frame[..], b"x");
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn total_loss_drops_everything() {
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(vec![tx], NetOptions::instant().lossy(1.0));
        for _ in 0..10 {
            t.send(env(0, b"y"));
        }
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn out_of_range_destination_is_ignored() {
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(vec![tx], NetOptions::instant());
        t.send(env(5, b"z"));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn blocked_link_drops_on_direct_path_and_heals() {
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(vec![tx], NetOptions::instant());
        t.fault_panel().block(0, 0);
        t.send(env(0, b"cut"));
        assert!(rx.try_recv().is_err());
        assert_eq!(t.fault_panel().blocked_drops(), 1);
        t.fault_panel().heal();
        t.send(env(0, b"whole"));
        assert_eq!(&rx.try_recv().expect("healed").frame[..], b"whole");
    }

    #[test]
    fn blocked_link_drops_through_net_thread() {
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(
            vec![tx],
            NetOptions::delayed(Duration::from_millis(1), Duration::ZERO),
        );
        t.fault_panel().block(0, 0);
        t.send(env(0, b"cut"));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        t.fault_panel().heal();
        t.send(env(0, b"whole"));
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("healed");
        assert_eq!(&got.frame[..], b"whole");
    }

    #[test]
    fn injected_total_loss_drops_everything_until_cleared() {
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(vec![tx], NetOptions::instant());
        t.fault_panel().set_loss(1.0);
        for _ in 0..10 {
            t.send(env(0, b"y"));
        }
        assert!(rx.try_recv().is_err());
        t.fault_panel().set_loss(0.0);
        t.send(env(0, b"z"));
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn ordering_preserved_with_constant_delay() {
        let (tx, rx) = unbounded();
        let t = ChannelTransport::new(
            vec![tx],
            NetOptions::delayed(Duration::from_millis(5), Duration::ZERO),
        );
        for i in 0..20u8 {
            t.send(env(0, &[i]));
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(rx.recv_timeout(Duration::from_secs(2)).unwrap().frame[0]);
        }
        let want: Vec<u8> = (0..20).collect();
        assert_eq!(got, want);
    }
}
