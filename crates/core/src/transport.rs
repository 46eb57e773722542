//! The in-process transport moving encoded frames between nodes.
//!
//! Transports are **shard-oblivious**: a frame is an opaque byte string
//! whose [`crate::wire`] header already carries the shard tag, so one
//! transport mesh serves every protocol instance of a sharded cluster and
//! demultiplexing happens in the node event loop, not here.
//!
//! The default channel transport posts frames straight into the
//! destination node's inbox, or through a network thread that applies
//! configurable delay and loss — the same unreliability surface the
//! simulator models, but in real time against real threads. On top of the
//! static [`NetOptions`], every frame consults a runtime-mutable
//! [`FaultPanel`]: blocked links (partitions) and injected loss bursts are
//! applied at send time, mirroring the simulator's partition semantics.
//! (The TCP transport lives in [`crate::tcp`].)

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use tokq_obs::{Counter, Gauge, Obs};
use tokq_protocol::types::NodeId;

use crate::fault::FaultPanel;
use crate::inbox::InboxTx;
use crate::node::NodeEvent;

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

/// A frame addressed to a node.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Sender node.
    pub(crate) from: NodeId,
    /// Destination node.
    pub(crate) to: NodeId,
    /// Encoded message frame.
    pub(crate) frame: Bytes,
}

/// Delivers envelopes into the destination nodes' inboxes as
/// `NodeEvent::Wire`, applying [`NetOptions`].
///
/// Frames pass through a dedicated network thread when any delay, jitter,
/// or loss is configured; otherwise the thread stepping the sending node
/// (its reactor or a lock caller) posts them itself.
pub(crate) struct ChannelTransport {
    inboxes: Vec<InboxTx>,
    net_tx: Option<Sender<Envelope>>,
    net_thread: Option<std::thread::JoinHandle<()>>,
    panel: FaultPanel,
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

/// Posts `env` into its destination's inbox; dead inboxes and unknown
/// nodes drop it.
fn deliver(inboxes: &[InboxTx], env: Envelope) {
    if let Some(inbox) = inboxes.get(env.to.index()) {
        let _ = inbox.send(NodeEvent::Wire {
            from: env.from,
            frame: env.frame,
        });
    }
}

impl ChannelTransport {
    /// A transport delivering into `inboxes` under `opts`, consulting
    /// `panel` on every frame and recording loss/delay counters
    /// (`net_dropped`, `net_delivered`, `net_inflight`) into `obs`.
    pub(crate) fn new(
        inboxes: Vec<InboxTx>,
        opts: NetOptions,
        obs: &Obs,
        panel: FaultPanel,
    ) -> Self {
        let needs_thread =
            opts.delay > Duration::ZERO || opts.jitter > Duration::ZERO || opts.loss > 0.0;
        if !needs_thread {
            return ChannelTransport {
                inboxes,
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
            inboxes: Vec::new(),
            net_tx: Some(tx),
            net_thread: Some(thread),
            panel,
        }
    }

    /// Sends one envelope; delivery is best-effort (dead inboxes,
    /// simulated losses, and faulted links are silently dropped).
    pub(crate) fn send(&self, env: Envelope) {
        if let Some(tx) = &self.net_tx {
            let _ = tx.send(env);
        } else if self.panel.admits(env.from.index(), env.to.index()) {
            deliver(&self.inboxes, env);
        }
    }
}

impl Drop for ChannelTransport {
    /// Stops the network thread (if any), dropping queued frames.
    fn drop(&mut self) {
        self.net_tx = None;
        if let Some(t) = self.net_thread.take() {
            let _ = t.join();
        }
    }
}

fn net_thread(
    rx: Receiver<Envelope>,
    inboxes: Vec<InboxTx>,
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
            deliver(&inboxes, d.env);
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
                    deliver(&inboxes, d.env);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use tokq_obs::Source;

    use super::*;
    use crate::inbox::{inbox, InboxRx};

    fn env(to: u32, payload: &[u8]) -> Envelope {
        Envelope {
            from: NodeId(0),
            to: NodeId(to),
            frame: Bytes::copy_from_slice(payload),
        }
    }

    /// A one-node transport under `opts` with its own fault panel, and the
    /// node's inbox.
    fn one_node(opts: NetOptions) -> (ChannelTransport, InboxRx) {
        let (tx, rx) = inbox(tokq_obs::Counter::detached()).expect("eventfd");
        let obs = Obs::disabled(Source::Runtime);
        let panel = FaultPanel::new(1, &obs);
        (ChannelTransport::new(vec![tx], opts, &obs, panel), rx)
    }

    /// The payload of the next frame in `rx`, waiting up to `timeout`.
    fn recv(rx: &InboxRx, timeout: Duration) -> Option<Bytes> {
        let deadline = Instant::now() + timeout;
        let mut out = VecDeque::new();
        loop {
            rx.take(&mut out, 1);
            match out.pop_front() {
                Some(NodeEvent::Wire { frame, .. }) => return Some(frame),
                Some(other) => panic!("not a frame: {other:?}"),
                None if Instant::now() >= deadline => return None,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    #[test]
    fn direct_transport_delivers_synchronously() {
        let (t, rx) = one_node(NetOptions::instant());
        t.send(env(0, b"hello"));
        let got = recv(&rx, Duration::ZERO).expect("delivered");
        assert_eq!(&got[..], b"hello");
    }

    #[test]
    fn delayed_transport_takes_time() {
        let (t, rx) = one_node(NetOptions::delayed(
            Duration::from_millis(30),
            Duration::ZERO,
        ));
        let start = Instant::now();
        t.send(env(0, b"x"));
        let got = recv(&rx, Duration::from_secs(2)).expect("delivered");
        assert_eq!(&got[..], b"x");
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn total_loss_drops_everything() {
        let (t, rx) = one_node(NetOptions::instant().lossy(1.0));
        for _ in 0..10 {
            t.send(env(0, b"y"));
        }
        assert!(recv(&rx, Duration::from_millis(100)).is_none());
    }

    #[test]
    fn out_of_range_destination_is_ignored() {
        let (t, rx) = one_node(NetOptions::instant());
        t.send(env(5, b"z"));
        assert!(recv(&rx, Duration::ZERO).is_none());
    }

    #[test]
    fn blocked_link_drops_on_direct_path_and_heals() {
        let (t, rx) = one_node(NetOptions::instant());
        t.panel.block(0, 0);
        t.send(env(0, b"cut"));
        assert!(recv(&rx, Duration::ZERO).is_none());
        assert_eq!(t.panel.blocked_drops(), 1);
        t.panel.heal();
        t.send(env(0, b"whole"));
        assert_eq!(&recv(&rx, Duration::ZERO).expect("healed")[..], b"whole");
    }

    #[test]
    fn blocked_link_drops_through_net_thread() {
        let (t, rx) = one_node(NetOptions::delayed(
            Duration::from_millis(1),
            Duration::ZERO,
        ));
        t.panel.block(0, 0);
        t.send(env(0, b"cut"));
        assert!(recv(&rx, Duration::from_millis(100)).is_none());
        t.panel.heal();
        t.send(env(0, b"whole"));
        let got = recv(&rx, Duration::from_secs(2)).expect("healed");
        assert_eq!(&got[..], b"whole");
    }

    #[test]
    fn injected_total_loss_drops_everything_until_cleared() {
        let (t, rx) = one_node(NetOptions::instant());
        t.panel.set_loss(1.0);
        for _ in 0..10 {
            t.send(env(0, b"y"));
        }
        assert!(recv(&rx, Duration::ZERO).is_none());
        t.panel.set_loss(0.0);
        t.send(env(0, b"z"));
        assert!(recv(&rx, Duration::ZERO).is_some());
    }

    #[test]
    fn ordering_preserved_with_constant_delay() {
        let (t, rx) = one_node(NetOptions::delayed(
            Duration::from_millis(5),
            Duration::ZERO,
        ));
        for i in 0..20u8 {
            t.send(env(0, &[i]));
        }
        let got: Vec<u8> = (0..20)
            .map(|_| recv(&rx, Duration::from_secs(2)).expect("delivered")[0])
            .collect();
        let want: Vec<u8> = (0..20).collect();
        assert_eq!(got, want);
    }
}
