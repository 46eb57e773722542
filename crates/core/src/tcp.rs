//! TCP transport: the cluster's nodes exchange frames over real loopback
//! (or LAN) sockets instead of in-process channels.
//!
//! The framing is `[u32 len][u32 sender][payload]` (big-endian), with the
//! payload being the [`crate::wire`] encoding of the protocol message —
//! including its shard tag, so the frames of every shard of a sharded
//! cluster interleave on one socket per peer and the receiving node loop
//! routes each to its protocol instance.
//!
//! # Send pipeline
//!
//! [`Wire::send`] never blocks and never connects. Established sockets
//! are nonblocking, and on the hot path — the peer is connected and out
//! of backoff, the [`FaultPanel`] lets the link through, and nothing
//! (queued frame, writer batch, half-written tail) is pending for that
//! peer — `send` writes the frame straight into the socket from the
//! calling protocol thread: one `write` syscall, no thread hop. If the
//! kernel takes only part of the frame, the rest becomes the
//! connection's *tail*, which the peer's writer thread finishes before
//! anything else.
//!
//! Every other case falls back to the outbox: `send` enqueues the frame
//! into a bounded per-peer queue (drop-oldest on overflow, counted in
//! `tcp_frames_abandoned`) and kicks that peer's dedicated writer thread.
//! That covers no connection yet, a writer mid-flush (it holds the
//! connection lock, which `send` only ever `try_lock`s), a full socket
//! buffer, a write error, a blocked link and a non-empty outbox. The
//! writer is the cold-path helper: it connects lazily, finishes tails,
//! coalesces everything queued into a single buffered write per wakeup,
//! and on failure parks the unsent frames and backs off exponentially
//! with jitter ([`BackoffPolicy`]). It writes in blocking mode — only
//! while the kernel buffer is full, bounded by a write-stall timeout — so
//! a dead or slow peer costs its own writer thread some blocking time,
//! never a protocol thread and never the other peers' links. There is no
//! timed polling: writers sleep on their kick channel and wake on new
//! frames, on the backoff deadline, or on a fault-panel transition.
//!
//! A frame is either written whole on one connection or retried whole on
//! the next: a frame cut short by a dying connection was never framed on
//! the peer, so resending it cannot duplicate delivery.
//!
//! Partitions come from the shared [`FaultPanel`], consulted at the moment
//! a frame would enter the network (the direct write or the writer's
//! flush). A blocked link holds its frames (and every later frame on the
//! same link, preserving per-link order) in the outbox; a heal wakes the
//! writer, which drains them in order. Injected panel loss, by contrast,
//! drops a frame outright, rolled exactly once per frame at its first
//! write attempt (TCP cannot resurrect a frame the application never
//! wrote), mirroring the simulator's loss semantics. Only queue overflow
//! abandons frames (oldest first) — sustained unreachability then
//! degrades to the lossy-network behaviour the fault-tolerant protocol
//! configuration already handles.
//!
//! # Receive path
//!
//! The receive side has no threads. Each node loop owns an `Inbound`: the
//! node's nonblocking listener and every connection it accepted, all
//! registered with the loop's [`Poller`], which also watches the node's
//! inbox bell. When a connection is ready the node thread reads it into
//! that connection's fixed 4 KiB buffer until a read comes back short or
//! would block, and parses every complete frame out of it; the buffer
//! grows only while a frame larger than itself is being assembled. The
//! frames join the inbox events of the same wakeup in one dispatch batch,
//! so a frame costs its node one wakeup rather than a reader thread's
//! wakeup plus a hand-off. A corrupt length closes that connection only;
//! the peer's writer reconnects. Shutting a node down closes its listener
//! and connections with it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use tokq_obs::{Counter, Gauge, Histogram, Obs, Source};
use tokq_protocol::types::NodeId;
use tokq_sys::{Interest, Poller};

use crate::fault::FaultPanel;
use crate::transport::{Envelope, Wire};

/// Maximum accepted frame payload (a PRIVILEGE for thousands of nodes is
/// far below this; anything bigger is corruption).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes of the `[u32 len][u32 sender]` header preceding each payload.
const HEADER: usize = 8;

/// Steady-state size of a reader's receive buffer: one `read` fills it
/// with every frame waiting on the socket (protocol frames are tens of
/// bytes), and a frame larger than this grows it only until consumed.
const READ_BUF: usize = 4096;

/// First and largest pause of a listener after accept errors (EMFILE and
/// friends must not spin the node loop at 100% CPU, but recovery should
/// still be prompt).
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// Upper bound on one blocking socket write; a peer that accepts the
/// connection but never drains is treated as failed (frames park and the
/// writer backs off) instead of pinning its writer thread forever.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(2);

/// Reconnect/backoff behaviour of a [`TcpSender`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry after a send failure.
    pub base: Duration,
    /// Upper bound on the backoff delay.
    pub max: Duration,
    /// Uniform jitter added to each delay, as a fraction of the delay
    /// (`0.5` adds up to +50%). Decorrelates reconnect storms when many
    /// peers fail at once.
    pub jitter: f64,
    /// Per-peer outbox bound; overflow drops the oldest frame.
    pub queue_cap: usize,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(10),
            max: Duration::from_secs(1),
            jitter: 0.5,
            queue_cap: 512,
        }
    }
}

impl BackoffPolicy {
    /// The delay following `current` in the exponential schedule.
    fn next_delay(&self, current: Duration) -> Duration {
        if current.is_zero() {
            self.base
        } else {
            (current * 2).min(self.max)
        }
    }
}

/// A frame parked in a peer's outbox.
struct QueuedFrame {
    env: Envelope,
    /// Whether this frame was already counted in `tcp_frames_requeued`.
    /// Set on the first write attempt that could not send it (failed or
    /// short write, or blocked link); later re-parks are not recounted,
    /// so the counter reads "frames that ever had to wait", matching the
    /// old send-path semantics.
    requeued: bool,
    /// Whether injected loss was already rolled for this frame. Loss is
    /// evaluated at write time but exactly once per frame, so retries do
    /// not compound the configured probability.
    loss_rolled: bool,
}

impl QueuedFrame {
    fn new(env: Envelope) -> Self {
        QueuedFrame {
            env,
            requeued: false,
            loss_rolled: false,
        }
    }

    /// Appends the frame's `[len][sender][payload]` encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.env.frame.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.env.from.0.to_be_bytes());
        out.extend_from_slice(&self.env.frame);
    }
}

/// A frame the socket took only part of: the rest must follow on the same
/// connection before any other byte.
struct Tail {
    frame: QueuedFrame,
    /// Bytes of the frame's encoding already written.
    written: usize,
}

/// Everything one peer's frames pass through: the queue shared by the
/// enqueuing protocol threads and the writer, and the connection that
/// both the direct path and the writer write into.
struct PeerOutbox {
    /// Held only for queue surgery (push/pop/trim) — never across a
    /// connect or write syscall.
    queue: Mutex<VecDeque<QueuedFrame>>,
    /// Frames logically pending for this peer: queued, popped into a
    /// writer's in-flight batch, or a connection's unfinished tail. Kept
    /// outside the queue so `pending_frames`, the overflow check and the
    /// direct path's "nothing ahead of me" check all see them.
    depth: AtomicUsize,
    /// The connection. The writer holds this lock across a whole flush
    /// pass, connect and blocking writes included; `Wire::send` only
    /// `try_lock`s it, so it never waits on the writer.
    conn: Mutex<WriterConn>,
    /// Wakes the peer's writer thread.
    kick: Sender<()>,
}

/// Connection state of one peer link.
struct WriterConn {
    /// The established socket, nonblocking outside the writer's stalled
    /// writes.
    conn: Option<TcpStream>,
    /// Current backoff delay; zero while the link is healthy.
    delay: Duration,
    /// Earliest instant the writer may retry after a failure.
    next_attempt: Instant,
    /// Whether a connection was ever established (distinguishes
    /// reconnects from first connects).
    ever_connected: bool,
    /// Reusable encoding buffer: one frame on the direct path,
    /// header+frame pairs for a whole batch in the writer.
    buf: Vec<u8>,
    /// End offset of each frame within `buf`, for partial-write
    /// accounting.
    bounds: Vec<usize>,
    /// A frame cut short by a full socket buffer on the direct path.
    tail: Option<Tail>,
}

impl WriterConn {
    fn new() -> Self {
        WriterConn {
            conn: None,
            delay: Duration::ZERO,
            next_attempt: Instant::now(),
            ever_connected: false,
            buf: Vec::new(),
            bounds: Vec::new(),
            tail: None,
        }
    }
}

/// Writes all of `bytes` into `stream`, which is nonblocking. While the
/// kernel buffer is full the stream is switched to blocking mode, where
/// each write is bounded by [`WRITE_STALL_TIMEOUT`], and switched back
/// once everything is written. `Err(n)` reports the bytes written before
/// the connection failed or stalled; the caller must then drop it.
fn write_stalling(stream: &mut TcpStream, bytes: &[u8]) -> Result<(), usize> {
    let mut off = 0;
    let mut blocking = false;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(off),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock && !blocking => {
                if stream.set_nonblocking(false).is_err() {
                    return Err(off);
                }
                blocking = true;
            }
            // Includes the stall timeout, which surfaces as WouldBlock
            // once the stream blocks.
            Err(_) => return Err(off),
        }
    }
    // A stream left blocking would let the direct path block: fail the
    // connection instead (every byte is written, so nothing is resent).
    if blocking && stream.set_nonblocking(true).is_err() {
        return Err(off);
    }
    Ok(())
}

/// What a flush pass left behind, deciding how the writer sleeps.
enum FlushState {
    /// Outbox empty: sleep until kicked.
    Idle,
    /// Frames held behind blocked links only: sleep until kicked (the
    /// fault panel kicks on every transition, so a heal wakes us).
    Parked,
    /// A send failed: sleep until the backoff deadline or a kick.
    Backoff(Instant),
}

struct SenderInner {
    addrs: Vec<SocketAddr>,
    peers: Vec<PeerOutbox>,
    policy: BackoffPolicy,
    connect_timeout: Duration,
    panel: FaultPanel,
    stop: AtomicBool,
    /// SplitMix64 state for backoff jitter.
    rng: AtomicU64,
    /// Successful outbound connection establishments (incl. reconnects).
    connects: Counter,
    /// Connection establishments after a previous failure or disconnect.
    reconnects: Counter,
    /// Frames that had to wait in an outbox past their first write
    /// attempt (failed or short write, or blocked link), counted once
    /// per frame.
    frames_requeued: Counter,
    /// Frames dropped because an outbox overflowed its bound.
    frames_abandoned: Counter,
    /// Frames written whole by the sending thread itself, with no writer
    /// thread involved.
    direct_writes: Counter,
    /// Frames currently pending across all outboxes.
    outbox_depth: Gauge,
    /// Frames per successful write: 1 for a direct write or a finished
    /// tail, the batch size for a writer's coalesced write.
    frames_per_flush: Histogram,
    /// Nanoseconds the caller spends inside `Wire::send`: the enqueue, or
    /// on the direct path the write syscall.
    enqueue_ns: Histogram,
}

impl SenderInner {
    fn jittered(&self, delay: Duration) -> Duration {
        if self.policy.jitter <= 0.0 {
            return delay;
        }
        let state = self
            .rng
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        delay + delay.mul_f64(self.policy.jitter * unit)
    }

    /// Drops the connection and schedules the next retry one backoff
    /// step out.
    fn fail_conn(&self, w: &mut WriterConn) {
        w.conn = None;
        w.delay = self.policy.next_delay(w.delay);
        w.next_attempt = Instant::now() + self.jittered(w.delay);
    }

    /// Adds one frame to peer `idx`'s logical depth.
    fn add_depth(&self, idx: usize) {
        self.peers[idx].depth.fetch_add(1, Ordering::Relaxed);
        self.outbox_depth.add(1);
    }

    /// Removes `n` frames from peer `idx`'s logical depth (sent, dropped
    /// by loss, or abandoned).
    fn sub_depth(&self, idx: usize, n: usize) {
        self.peers[idx].depth.fetch_sub(n, Ordering::Relaxed);
        self.outbox_depth.sub(n as i64);
    }

    /// Counts `f` as requeued exactly once over its lifetime.
    fn mark_requeued(&self, f: &mut QueuedFrame) {
        if !f.requeued {
            f.requeued = true;
            self.frames_requeued.inc();
        }
    }

    /// The direct path: writes `frame` into peer `idx`'s socket from the
    /// calling thread when nothing can be ahead of it on that link.
    /// Returns the frame when it must go through the outbox instead.
    fn send_direct(&self, idx: usize, mut frame: QueuedFrame) -> Option<QueuedFrame> {
        let peer = &self.peers[idx];
        let Some(mut guard) = peer.conn.try_lock() else {
            return Some(frame); // the writer is mid-flush
        };
        let w = &mut *guard;
        // Depth counts queued frames, a writer's batch and a tail, so
        // zero means no earlier frame of any link to this peer is
        // pending and per-link order cannot break.
        if w.conn.is_none()
            || !w.delay.is_zero()
            || peer.depth.load(Ordering::Relaxed) != 0
            || self.panel.is_blocked(frame.env.from.index(), idx)
        {
            return Some(frame);
        }
        frame.loss_rolled = true;
        if self.panel.rolls_loss_drop() {
            return None; // injected loss: frame gone
        }
        w.buf.clear();
        frame.encode_into(&mut w.buf);
        let stream = w.conn.as_mut().expect("checked above");
        let written = loop {
            match stream.write(&w.buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break 0,
                Err(_) => {
                    self.fail_conn(w);
                    self.mark_requeued(&mut frame);
                    return Some(frame);
                }
            }
        };
        if written == w.buf.len() {
            self.direct_writes.inc();
            self.frames_per_flush.record(1);
            return None;
        }
        self.mark_requeued(&mut frame);
        if written == 0 {
            return Some(frame); // socket buffer full: the writer waits it out
        }
        // Part of the frame is on the wire: the rest must follow on this
        // connection, so it stays with the connection, not the queue.
        self.add_depth(idx);
        w.tail = Some(Tail { frame, written });
        drop(guard);
        let _ = peer.kick.send(());
        None
    }

    /// Puts frames that could not be written back at the front of peer
    /// `idx`'s outbox in order, trims it back under its bound
    /// (drop-oldest: frames enqueued during the failed write may have
    /// pushed it over), and backs off.
    fn park_failed(
        &self,
        idx: usize,
        w: &mut WriterConn,
        unsent: impl DoubleEndedIterator<Item = QueuedFrame>,
    ) -> FlushState {
        let mut q = self.peers[idx].queue.lock();
        for mut f in unsent.rev() {
            self.mark_requeued(&mut f);
            q.push_front(f);
        }
        while self.peers[idx].depth.load(Ordering::Relaxed) > self.policy.queue_cap {
            if q.pop_front().is_none() {
                break;
            }
            self.sub_depth(idx, 1);
            self.frames_abandoned.inc();
        }
        drop(q);
        self.fail_conn(w);
        FlushState::Backoff(w.next_attempt)
    }

    /// One flush pass over peer `idx`: finishes a pending tail, then
    /// repeatedly splits the outbox into held frames (blocked links, kept
    /// in order) and a sendable batch, and writes the batch as a single
    /// coalesced buffer. Returns how the writer should sleep.
    fn flush_peer(&self, idx: usize, w: &mut WriterConn) -> FlushState {
        if let Some(tail) = w.tail.take() {
            // The connection that took the tail's head is still up (a
            // failed direct write never leaves a tail behind).
            w.buf.clear();
            tail.frame.encode_into(&mut w.buf);
            let stream = w.conn.as_mut().expect("a tail implies a connection");
            if write_stalling(stream, &w.buf[tail.written..]).is_err() {
                return self.park_failed(idx, w, std::iter::once(tail.frame));
            }
            self.sub_depth(idx, 1);
            self.frames_per_flush.record(1);
        }
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return FlushState::Idle;
            }
            if Instant::now() < w.next_attempt {
                // Inside a backoff window the link is known-bad: leave
                // everything parked until the deadline.
                return if self.peers[idx].queue.lock().is_empty() {
                    FlushState::Idle
                } else {
                    FlushState::Backoff(w.next_attempt)
                };
            }
            let mut batch: Vec<QueuedFrame> = Vec::new();
            let held_any;
            {
                let mut q = self.peers[idx].queue.lock();
                if q.is_empty() {
                    return FlushState::Idle;
                }
                let mut kept: VecDeque<QueuedFrame> = VecDeque::with_capacity(q.len());
                // Source nodes with a held frame earlier in the scan: all
                // their later frames must hold too, so a link healing
                // mid-scan cannot reorder that link's frames.
                let mut held_links: Vec<u32> = Vec::new();
                while let Some(mut f) = q.pop_front() {
                    let from = f.env.from;
                    if held_links.contains(&from.0) || self.panel.is_blocked(from.index(), idx) {
                        self.mark_requeued(&mut f);
                        if !held_links.contains(&from.0) {
                            held_links.push(from.0);
                        }
                        kept.push_back(f);
                    } else if !f.loss_rolled && self.panel.rolls_loss_drop() {
                        self.sub_depth(idx, 1); // injected loss: frame gone
                    } else {
                        f.loss_rolled = true;
                        batch.push(f);
                    }
                }
                held_any = !kept.is_empty();
                *q = kept;
            }
            if batch.is_empty() {
                return if held_any {
                    FlushState::Parked
                } else {
                    FlushState::Idle
                };
            }
            match self.write_batch(idx, w, &batch) {
                Ok(()) => {
                    w.delay = Duration::ZERO;
                    self.sub_depth(idx, batch.len());
                    self.frames_per_flush.record(batch.len() as u64);
                    // Go around: more frames may have queued while the
                    // batch was on the wire.
                }
                Err(sent) => {
                    self.sub_depth(idx, sent);
                    if sent > 0 {
                        self.frames_per_flush.record(sent as u64);
                    }
                    return self.park_failed(idx, w, batch.into_iter().skip(sent));
                }
            }
        }
    }

    /// Connects (if needed) and writes the whole batch as one coalesced
    /// buffer. On failure returns `Err(sent)` with the count of frames
    /// whose bytes were fully accepted; the boundary frame and everything
    /// after it must be retried — a partially-written frame was never
    /// framed on the peer, so resending it cannot duplicate delivery.
    fn write_batch(
        &self,
        idx: usize,
        w: &mut WriterConn,
        batch: &[QueuedFrame],
    ) -> Result<(), usize> {
        if w.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addrs[idx], self.connect_timeout)
                .map_err(|_| 0usize)?;
            let _ = stream.set_nodelay(true);
            // The timeout bounds the writer's blocking writes; the
            // nonblocking mode keeps the direct path from ever blocking.
            stream
                .set_write_timeout(Some(WRITE_STALL_TIMEOUT))
                .and_then(|()| stream.set_nonblocking(true))
                .map_err(|_| 0usize)?;
            self.connects.inc();
            if w.ever_connected {
                self.reconnects.inc();
            }
            w.ever_connected = true;
            w.conn = Some(stream);
        }
        w.buf.clear();
        w.bounds.clear();
        for f in batch {
            f.encode_into(&mut w.buf);
            w.bounds.push(w.buf.len());
        }
        let stream = w.conn.as_mut().expect("just connected");
        write_stalling(stream, &w.buf).map_err(|off| w.bounds.iter().filter(|&&b| b <= off).count())
    }

    fn pending_frames(&self) -> usize {
        self.peers
            .iter()
            .map(|p| p.depth.load(Ordering::Relaxed))
            .sum()
    }
}

/// One writer thread per peer: sleeps on the kick channel, flushes on
/// wakeup. Kicks arrive from `Wire::send` (new frame or tail), `shutdown`,
/// and every fault-panel transition (so a heal drains parked frames
/// immediately, with no timed polling anywhere).
fn writer_loop(inner: Arc<SenderInner>, idx: usize, kick: Receiver<()>) {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let peer = &inner.peers[idx];
        // With nothing pending there is nothing to flush: leave the
        // connection lock to the direct path rather than take it for a
        // stale kick. Otherwise the lock is released before sleeping,
        // reopening the direct path.
        let state = if peer.depth.load(Ordering::Relaxed) == 0 {
            FlushState::Idle
        } else {
            inner.flush_peer(idx, &mut peer.conn.lock())
        };
        let received = match state {
            FlushState::Idle | FlushState::Parked => {
                kick.recv().map_err(|_| RecvTimeoutError::Disconnected)
            }
            FlushState::Backoff(until) => {
                kick.recv_timeout(until.saturating_duration_since(Instant::now()))
            }
        };
        match received {
            Ok(()) => {
                // Coalesce a kick storm into one flush pass.
                while kick.try_recv().is_ok() {}
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The sending half: a connection, a bounded outbox and a dedicated
/// writer thread per peer. `send` never blocks: it writes into an
/// established nonblocking socket or enqueues for the writer.
pub struct TcpSender {
    inner: Arc<SenderInner>,
    writers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("peers", &self.inner.addrs.len())
            .field("pending_frames", &self.inner.pending_frames())
            .finish()
    }
}

impl TcpSender {
    /// A sender that can reach every address in `addrs` (indexed by node).
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        Self::with_obs(addrs, &Obs::disabled(Source::Runtime))
    }

    /// Like [`TcpSender::new`], recording pipeline telemetry into `obs`:
    /// connection churn counters (`tcp_connects`, `tcp_reconnects`,
    /// `tcp_frames_requeued`, `tcp_frames_abandoned`), the
    /// `tcp_direct_writes` counter, the `tcp_outbox_depth` gauge, and the
    /// `tcp_frames_per_flush` / `send_enqueue_ns` histograms.
    pub fn with_obs(addrs: Vec<SocketAddr>, obs: &Obs) -> Self {
        let panel = FaultPanel::new(addrs.len(), obs);
        Self::with_panel(addrs, obs, panel, BackoffPolicy::default())
    }

    /// Full-control constructor: an external [`FaultPanel`] (shared with
    /// the fault-injecting side) and an explicit [`BackoffPolicy`].
    /// Spawns one `tokq-tcp-write-<peer>` thread per address.
    pub fn with_panel(
        addrs: Vec<SocketAddr>,
        obs: &Obs,
        panel: FaultPanel,
        policy: BackoffPolicy,
    ) -> Self {
        let mut peers = Vec::with_capacity(addrs.len());
        let mut kick_rxs = Vec::with_capacity(addrs.len());
        for _ in 0..addrs.len() {
            let (tx, rx) = unbounded::<()>();
            peers.push(PeerOutbox {
                queue: Mutex::new(VecDeque::new()),
                depth: AtomicUsize::new(0),
                conn: Mutex::new(WriterConn::new()),
                kick: tx,
            });
            kick_rxs.push(rx);
        }
        let inner = Arc::new(SenderInner {
            addrs,
            peers,
            policy,
            connect_timeout: Duration::from_millis(500),
            panel,
            stop: AtomicBool::new(false),
            rng: AtomicU64::new(0x7C9A_B0FF),
            connects: obs.registry().counter("tcp_connects"),
            reconnects: obs.registry().counter("tcp_reconnects"),
            frames_requeued: obs.registry().counter("tcp_frames_requeued"),
            frames_abandoned: obs.registry().counter("tcp_frames_abandoned"),
            direct_writes: obs.registry().counter("tcp_direct_writes"),
            outbox_depth: obs.registry().gauge("tcp_outbox_depth"),
            frames_per_flush: obs.registry().histogram("tcp_frames_per_flush"),
            enqueue_ns: obs.registry().histogram("send_enqueue_ns"),
        });
        // Any fault transition wakes every writer: parked frames drain
        // the instant their link heals.
        let kicks: Vec<Sender<()>> = inner.peers.iter().map(|p| p.kick.clone()).collect();
        inner.panel.add_waker(Box::new(move || {
            for k in &kicks {
                let _ = k.send(());
            }
        }));
        let writers = kick_rxs
            .into_iter()
            .enumerate()
            .map(|(idx, rx)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tokq-tcp-write-{idx}"))
                    .spawn(move || writer_loop(inner, idx, rx))
                    .expect("spawn tcp writer thread")
            })
            .collect();
        TcpSender {
            inner,
            writers: Mutex::new(writers),
        }
    }

    /// The fault panel this sender consults before every write.
    pub fn fault_panel(&self) -> &FaultPanel {
        &self.inner.panel
    }

    /// Frames currently pending (queued, in a writer's in-flight batch,
    /// or half-written) across all peers.
    pub fn pending_frames(&self) -> usize {
        self.inner.pending_frames()
    }

    /// Stops and joins every writer thread and closes every connection;
    /// pending frames are dropped. Called automatically on drop.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for p in &self.inner.peers {
            let _ = p.kick.send(());
        }
        for t in self.writers.lock().drain(..) {
            let _ = t.join();
        }
        // With no connection, later sends can only enqueue.
        for p in &self.inner.peers {
            p.conn.lock().conn = None;
        }
    }
}

impl Wire for TcpSender {
    fn send(&self, env: Envelope) {
        let started = Instant::now();
        let idx = env.to.index();
        if idx >= self.inner.addrs.len() {
            return; // no such peer: drop, like the channel transport
        }
        if let Some(frame) = self.inner.send_direct(idx, QueuedFrame::new(env)) {
            let peer = &self.inner.peers[idx];
            {
                let mut q = peer.queue.lock();
                // Drop-oldest at the bound. With every queued frame in a
                // writer's in-flight batch there is nothing to pop; the
                // bound is restored by the writer's post-failure trim.
                if peer.depth.load(Ordering::Relaxed) >= self.inner.policy.queue_cap
                    && q.pop_front().is_some()
                {
                    self.inner.sub_depth(idx, 1);
                    self.inner.frames_abandoned.inc();
                }
                q.push_back(frame);
                self.inner.add_depth(idx);
            }
            let _ = peer.kick.send(());
        }
        self.inner
            .enqueue_ns
            .record(started.elapsed().as_nanos() as u64);
    }
}

impl Drop for TcpSender {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Poller token of an [`Inbound`]'s listener. Accepted connections take
/// the tokens above it; the node loop keeps the ones below.
const LISTENER: u64 = 1;

/// The receiving half of a node's TCP endpoint: its nonblocking listener
/// and every connection the listener accepted, each with its own
/// [`FrameReader`]. It has no thread: the node loop's [`Poller`] reports
/// which of its descriptors are ready and [`Inbound::ready`] serves them.
pub(crate) struct Inbound {
    listener: TcpListener,
    /// Accepted connections by `token - LISTENER - 1`; `None` marks a
    /// free slot, reused before the table grows.
    conns: Vec<Option<InboundConn>>,
    /// Current accept-error backoff; zero while accepting works.
    accept_delay: Duration,
    /// While accepting backs off, when the listener is registered again.
    paused_until: Option<Instant>,
}

struct InboundConn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Inbound {
    /// Makes `listener` nonblocking and registers it with `poller`.
    ///
    /// # Errors
    ///
    /// Either step's socket or epoll error.
    pub(crate) fn new(listener: TcpListener, poller: &Poller) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        poller.register(&listener, LISTENER, Interest::READABLE)?;
        Ok(Inbound {
            listener,
            conns: Vec::new(),
            accept_delay: Duration::ZERO,
            paused_until: None,
        })
    }

    /// Serves one ready `token` of this endpoint: accepts every pending
    /// connection, or reads every frame a connection has ready into
    /// `frames`. A connection that ended, failed or sent a corrupt length
    /// is closed, which also ends its registration.
    pub(crate) fn ready(&mut self, poller: &Poller, token: u64, frames: &mut Vec<(NodeId, Bytes)>) {
        if token == LISTENER {
            self.accept_all(poller);
            return;
        }
        let Some(idx) = token
            .checked_sub(LISTENER + 1)
            .and_then(|i| usize::try_from(i).ok())
        else {
            return;
        };
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        if !conn.reader.read_available(&mut conn.stream, frames) {
            self.conns[idx] = None;
        }
    }

    /// When a paused listener is due back, if accepting is backing off.
    pub(crate) fn resume_at(&self) -> Option<Instant> {
        self.paused_until
    }

    /// Registers a paused listener again once its backoff has passed.
    pub(crate) fn resume(&mut self, poller: &Poller) {
        if self.paused_until.is_some_and(|at| at <= Instant::now()) {
            self.paused_until = None;
            if poller
                .register(&self.listener, LISTENER, Interest::READABLE)
                .is_err()
            {
                self.pause();
            }
        }
    }

    fn accept_all(&mut self, poller: &Poller) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_delay = Duration::ZERO;
                    self.add(poller, stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // Persistent accept errors (EMFILE, ENFILE) leave the
                    // listener readable: take it out of the poller for a
                    // backoff rather than spin the node loop at 100% CPU.
                    let _ = poller.deregister(&self.listener);
                    self.pause();
                    return;
                }
            }
        }
    }

    fn pause(&mut self) {
        self.accept_delay = if self.accept_delay.is_zero() {
            ACCEPT_BACKOFF_MIN
        } else {
            (self.accept_delay * 2).min(ACCEPT_BACKOFF_MAX)
        };
        self.paused_until = Some(Instant::now() + self.accept_delay);
    }

    fn add(&mut self, poller: &Poller, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return; // dropping the stream closes the connection
        }
        let idx = self
            .conns
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
        let token = LISTENER + 1 + idx as u64;
        if poller.register(&stream, token, Interest::READABLE).is_err() {
            return;
        }
        self.conns[idx] = Some(InboundConn {
            stream,
            reader: FrameReader::new(),
        });
    }
}

/// Incremental parser of the `[len][sender][payload]` stream of one
/// connection over a fixed [`READ_BUF`]-byte buffer:
/// [`FrameReader::read_available`] reads what the socket holds and yields
/// every complete frame through [`FrameReader::next_frame`].
struct FrameReader {
    buf: Vec<u8>,
    /// Start of the unparsed bytes in `buf`.
    start: usize,
    /// End of the bytes read into `buf`.
    end: usize,
}

/// A length prefix above [`MAX_FRAME`]: the stream is corrupt and the
/// connection must be dropped.
#[derive(Debug)]
struct CorruptFrame;

impl FrameReader {
    fn new() -> Self {
        FrameReader {
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// Bytes the frame being assembled needs in all, header included
    /// (just the header while its length is still unknown).
    fn pending_len(&self) -> usize {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < HEADER {
            return HEADER;
        }
        let len = u32::from_be_bytes(avail[..4].try_into().expect("4 bytes"));
        HEADER + len as usize
    }

    /// Moves a partial frame left by the last read to the front and
    /// sizes the buffer for the next read: it grows to hold a frame larger
    /// than [`READ_BUF`] and shrinks back afterwards. Returns the free
    /// bytes after the buffered ones.
    fn make_room(&mut self) -> usize {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        // `next_frame` has rejected any length above MAX_FRAME by now, so
        // this stays bounded.
        let want = self.pending_len().max(READ_BUF);
        if self.buf.len() != want {
            self.buf.resize(want, 0);
            self.buf.shrink_to(want);
        }
        self.buf.len() - self.end
    }

    /// Reads from `src` until it would block or a read comes back short
    /// (the socket's receive queue was emptied), appending every complete
    /// frame to `out`. Returns `false` once the connection must close: end
    /// of stream, a read error, or a corrupt length.
    fn read_available(&mut self, src: &mut impl Read, out: &mut Vec<(NodeId, Bytes)>) -> bool {
        loop {
            let room = self.make_room();
            let n = match src.read(&mut self.buf[self.end..]) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return e.kind() == ErrorKind::WouldBlock,
            };
            self.end += n;
            loop {
                match self.next_frame() {
                    Ok(Some(frame)) => out.push(frame),
                    Ok(None) => break,
                    Err(CorruptFrame) => return false,
                }
            }
            if n < room {
                return true;
            }
        }
    }

    /// The next complete frame in the buffer, `Ok(None)` if more bytes
    /// are needed.
    fn next_frame(&mut self) -> Result<Option<(NodeId, Bytes)>, CorruptFrame> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < HEADER {
            return Ok(None);
        }
        let len = u32::from_be_bytes(avail[..4].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            return Err(CorruptFrame);
        }
        let total = HEADER + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let from = u32::from_be_bytes(avail[4..HEADER].try_into().expect("4 bytes"));
        let frame = Bytes::copy_from_slice(&avail[HEADER..total]);
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some((NodeId(from), frame)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokq_sys::{Events, Waker};

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("valid addr")
    }

    /// An address nothing listens on.
    fn dead_addr() -> SocketAddr {
        let listener = TcpListener::bind(loopback()).expect("bind");
        listener.local_addr().expect("addr")
    }

    /// A node loop reduced to its receive side: a thread serving one
    /// [`Inbound`] from its own poller and handing every frame to a
    /// channel. Its waker ends it.
    struct Endpoint {
        addr: SocketAddr,
        frames: Receiver<(NodeId, Bytes)>,
        stop: Arc<AtomicBool>,
        waker: Arc<Waker>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Endpoint {
        fn bind() -> Self {
            const WAKE: u64 = 0;
            let listener = TcpListener::bind(loopback()).expect("bind");
            let addr = listener.local_addr().expect("addr");
            let poller = Poller::new().expect("poller");
            let waker = Arc::new(Waker::new().expect("eventfd"));
            poller
                .register(&*waker, WAKE, Interest::READABLE.edge())
                .expect("register waker");
            let mut inbound = Inbound::new(listener, &poller).expect("inbound");
            let stop = Arc::new(AtomicBool::new(false));
            let (tx, rx) = unbounded();
            let halt = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                let mut events = Events::with_capacity(16);
                let mut frames = Vec::new();
                while !halt.load(Ordering::SeqCst) {
                    let timeout = inbound
                        .resume_at()
                        .map(|at| at.saturating_duration_since(Instant::now()));
                    poller.wait(&mut events, timeout).expect("wait");
                    inbound.resume(&poller);
                    for token in events.tokens().filter(|&t| t != WAKE) {
                        inbound.ready(&poller, token, &mut frames);
                    }
                    for frame in frames.drain(..) {
                        let _ = tx.send(frame);
                    }
                }
            });
            Endpoint {
                addr,
                frames: rx,
                stop,
                waker,
                thread: Some(thread),
            }
        }
    }

    impl Drop for Endpoint {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            let _ = self.waker.wake();
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    fn env_to0(from: u32, payload: &[u8]) -> Envelope {
        Envelope {
            from: NodeId(from),
            to: NodeId(0),
            frame: Bytes::copy_from_slice(payload),
        }
    }

    fn recv_frame(rx: &Receiver<(NodeId, Bytes)>, timeout: Duration) -> Bytes {
        rx.recv_timeout(timeout).expect("frame").1
    }

    /// Polls `cond` for up to five seconds; the writer pipeline is
    /// asynchronous, so queue-state assertions need a grace window.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn frame_roundtrips_over_loopback() {
        let ep = Endpoint::bind();
        let sender = TcpSender::new(vec![ep.addr]);
        sender.send(Envelope {
            from: NodeId(7),
            to: NodeId(0),
            frame: Bytes::from_static(b"hello tcp"),
        });
        let (from, frame) = ep
            .frames
            .recv_timeout(Duration::from_secs(5))
            .expect("delivered");
        assert_eq!(from, NodeId(7));
        assert_eq!(&frame[..], b"hello tcp");
    }

    #[test]
    fn many_frames_keep_order_per_connection() {
        let ep = Endpoint::bind();
        let sender = TcpSender::new(vec![ep.addr]);
        for i in 0..100u8 {
            sender.send(env_to0(1, &[i]));
        }
        for i in 0..100u8 {
            assert_eq!(recv_frame(&ep.frames, Duration::from_secs(5))[0], i);
        }
    }

    #[test]
    fn send_to_dead_peer_queues_without_blocking() {
        let addr = dead_addr();
        let sender = TcpSender::new(vec![addr]);
        // Must not panic or hang; the frame parks for retry.
        sender.send(env_to0(0, b"x"));
        assert_eq!(sender.pending_frames(), 1);
    }

    #[test]
    fn queue_overflow_abandons_oldest() {
        let addr = dead_addr();
        let obs = Obs::disabled(Source::Runtime);
        let policy = BackoffPolicy {
            queue_cap: 4,
            ..BackoffPolicy::default()
        };
        let sender = TcpSender::with_panel(vec![addr], &obs, FaultPanel::detached(1), policy);
        for i in 0..10u8 {
            sender.send(env_to0(0, &[i]));
        }
        // The writer trims any transient over-cap backlog on its next
        // failed flush, so poll rather than assert instantaneously.
        assert!(
            eventually(|| {
                sender.pending_frames() <= 4
                    && obs.registry().snapshot().counters["tcp_frames_abandoned"] >= 6
            }),
            "pending={} counters={:?}",
            sender.pending_frames(),
            obs.registry().snapshot().counters
        );
    }

    #[test]
    fn peer_reset_triggers_reconnect_and_redelivery() {
        // Raw listener so the test controls the server side of the
        // connection: accepting and dropping with data unread sends an
        // RST, deterministically killing the sender's cached stream.
        let obs = Obs::disabled(Source::Runtime);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sender = TcpSender::with_panel(
            vec![addr],
            &obs,
            FaultPanel::detached(1),
            BackoffPolicy {
                base: Duration::from_millis(5),
                ..BackoffPolicy::default()
            },
        );
        sender.send(env_to0(0, b"doomed"));
        let (first_conn, _) = listener.accept().expect("accept");
        drop(first_conn); // unread data → RST
        std::thread::sleep(Duration::from_millis(50));
        // The cached stream is now dead. A write into it can still land in
        // the kernel buffer if the RST races us (that frame is lost — TCP
        // semantics), so send a sacrificial probe first and give the
        // writer a beat to flush it separately; the failing write forces a
        // reconnect and every later frame arrives on the fresh connection.
        sender.send(env_to0(0, b"probe"));
        std::thread::sleep(Duration::from_millis(30));
        sender.send(env_to0(0, b"after reset"));
        let (mut conn, _) = listener.accept().expect("re-accept");
        let mut seen = Vec::new();
        loop {
            let mut header = [0u8; 8];
            conn.read_exact(&mut header).expect("header");
            let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
            let mut payload = vec![0u8; len];
            conn.read_exact(&mut payload).expect("payload");
            if payload == b"after reset" {
                break;
            }
            seen.push(payload);
            assert!(seen.len() < 3, "unexpected frames before redelivery");
        }
        let counters = obs.registry().snapshot().counters;
        assert!(counters["tcp_reconnects"] >= 1, "{counters:?}");
        assert_eq!(counters["tcp_connects"], 2, "{counters:?}");
    }

    #[test]
    fn blocked_link_parks_frames_and_heals_in_order() {
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let rx = &ep.frames;
        let panel = FaultPanel::detached(2);
        let sender = TcpSender::with_panel(
            vec![ep.addr, ep.addr],
            &obs,
            panel.clone(),
            BackoffPolicy::default(),
        );
        panel.block(1, 0);
        for i in 0..5u8 {
            sender.send(env_to0(1, &[i]));
        }
        assert!(rx.recv_timeout(Duration::from_millis(80)).is_err());
        assert_eq!(sender.pending_frames(), 5);
        panel.heal();
        for i in 0..5u8 {
            assert_eq!(recv_frame(rx, Duration::from_secs(5))[0], i);
        }
        assert!(eventually(|| sender.pending_frames() == 0));
        assert_eq!(obs.registry().snapshot().counters["tcp_frames_requeued"], 5);
    }

    #[test]
    fn send_stays_enqueue_only_and_batches_coalesce() {
        // Block the link first so every send is a pure enqueue, then heal:
        // the whole backlog must leave in one coalesced batch write.
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let rx = &ep.frames;
        let panel = FaultPanel::detached(2);
        let sender = TcpSender::with_panel(
            vec![ep.addr, ep.addr],
            &obs,
            panel.clone(),
            BackoffPolicy::default(),
        );
        panel.block(1, 0);
        for i in 0..32u8 {
            sender.send(env_to0(1, &[i]));
        }
        panel.heal();
        for i in 0..32u8 {
            assert_eq!(recv_frame(rx, Duration::from_secs(5))[0], i);
        }
        let snap = obs.registry().snapshot();
        let enqueue = &snap.histograms["send_enqueue_ns"];
        assert_eq!(enqueue.count, 32, "every send recorded its enqueue time");
        let per_flush = &snap.histograms["tcp_frames_per_flush"];
        assert!(
            per_flush.max >= 2,
            "parked backlog should coalesce into a multi-frame batch: {per_flush:?}"
        );
        assert!(eventually(|| obs
            .registry()
            .gauge("tcp_outbox_depth")
            .get()
            == 0));
    }

    #[test]
    fn direct_path_never_overtakes_a_pending_frame() {
        let ep = Endpoint::bind();
        let rx = &ep.frames;
        let sender = TcpSender::new(vec![ep.addr]);
        sender.send(env_to0(1, b"connect"));
        assert_eq!(&recv_frame(rx, Duration::from_secs(5))[..], b"connect");
        assert!(eventually(|| sender.pending_frames() == 0));
        // A frame the writer has not drained yet, as if enqueued while it
        // held the connection: the link is connected and unblocked, but
        // the next send must still queue behind it.
        sender.inner.peers[0]
            .queue
            .lock()
            .push_back(QueuedFrame::new(env_to0(1, b"first")));
        sender.inner.add_depth(0);
        sender.send(env_to0(1, b"second"));
        assert_eq!(&recv_frame(rx, Duration::from_secs(5))[..], b"first");
        assert_eq!(&recv_frame(rx, Duration::from_secs(5))[..], b"second");
    }

    #[test]
    fn shutdown_joins_writers_promptly_with_dead_peer() {
        let addr = dead_addr();
        let sender = TcpSender::new(vec![addr]);
        sender.send(env_to0(0, b"x"));
        let started = Instant::now();
        sender.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "shutdown hung: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn node_shutdown_returns_promptly_with_live_peer_connections() {
        let cluster = crate::Cluster::builder(3).tcp().build();
        // Locking through every node leaves each node's listener with
        // accepted, connected-but-quiet peer connections.
        for node in 0..3 {
            drop(
                cluster
                    .handle(node)
                    .expect("in range")
                    .lock()
                    .expect("granted"),
            );
        }
        let started = Instant::now();
        cluster.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown hung: {:?}",
            started.elapsed()
        );
    }

    /// A `Read` that hands out its bytes in the given chunks, one chunk
    /// per call, then reports EOF. Chunks must be non-empty: an empty
    /// read means EOF.
    struct Chunks(VecDeque<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let Some(mut chunk) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.0.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    fn encoded(from: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        QueuedFrame::new(Envelope {
            from: NodeId(from),
            to: NodeId(0),
            frame: Bytes::copy_from_slice(payload),
        })
        .encode_into(&mut out);
        out
    }

    fn pump_all(chunks: Vec<Vec<u8>>) -> Vec<(NodeId, Bytes)> {
        let mut src = Chunks(chunks.into());
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        while reader.read_available(&mut src, &mut got) {}
        got
    }

    #[test]
    fn reader_reassembles_frames_split_at_every_byte_boundary() {
        let frames: Vec<(u32, Vec<u8>)> =
            vec![(1, b"first".to_vec()), (2, Vec::new()), (3, vec![7u8; 300])];
        let stream: Vec<u8> = frames.iter().flat_map(|(f, p)| encoded(*f, p)).collect();
        let expected: Vec<(NodeId, Bytes)> = frames
            .iter()
            .map(|(f, p)| (NodeId(*f), Bytes::copy_from_slice(p)))
            .collect();
        for split in 0..=stream.len() {
            let (head, rest) = stream.split_at(split);
            let chunks = [head, rest]
                .into_iter()
                .filter(|c| !c.is_empty())
                .map(<[u8]>::to_vec)
                .collect();
            assert_eq!(pump_all(chunks), expected, "split at byte {split}");
        }
        let bytewise = stream.iter().map(|&b| vec![b]).collect();
        assert_eq!(pump_all(bytewise), expected, "one byte per read");
    }

    #[test]
    fn reader_grows_for_a_frame_larger_than_its_buffer_then_shrinks() {
        let big = vec![0xabu8; 3 * READ_BUF + 5];
        let mut stream = encoded(4, &big);
        stream.extend(encoded(5, b"after"));
        let mut reader = FrameReader::new();
        let mut src = Chunks(vec![stream].into());
        let mut got = Vec::new();
        while reader.read_available(&mut src, &mut got) {}
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].0, &got[0].1[..]), (NodeId(4), &big[..]));
        assert_eq!((got[1].0, &got[1].1[..]), (NodeId(5), &b"after"[..]));
        assert_eq!(reader.buf.len(), READ_BUF, "back to the steady-state size");
        assert!(
            reader.buf.capacity() < 2 * READ_BUF,
            "oversized buffer released"
        );
    }

    #[test]
    fn reader_drops_a_corrupt_length_and_delivers_nothing() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        stream.extend_from_slice(&1u32.to_be_bytes());
        stream.extend(encoded(1, b"never parsed"));
        assert!(pump_all(vec![stream]).is_empty());
    }

    #[test]
    fn oversized_frame_drops_connection_not_process() {
        let ep = Endpoint::bind();
        let rx = &ep.frames;
        // Hand-craft a corrupt header claiming a gigantic frame.
        let mut s = TcpStream::connect(ep.addr).expect("connect");
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        s.write_all(&header).expect("write");
        // The reader must simply drop the connection; nothing delivered.
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
        // Only that connection: the corrupt one is closed, another still
        // delivers.
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert!(matches!(s.read(&mut [0u8; 1]), Ok(0) | Err(_)));
        let mut healthy = TcpStream::connect(ep.addr).expect("connect");
        healthy
            .write_all(&encoded(3, b"still served"))
            .expect("write");
        let (from, frame) = rx.recv_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!((from, &frame[..]), (NodeId(3), &b"still served"[..]));
    }
}
