//! TCP transport: the cluster's nodes exchange frames over real loopback
//! (or LAN) sockets instead of in-process channels.
//!
//! The framing is `[u32 len][u32 sender][payload]` (big-endian), with the
//! payload being the [`crate::wire`] encoding of the protocol message —
//! including its shard tag, so the frames of every shard of a sharded
//! cluster interleave on one connection per node pair and the receiving
//! node loop routes each to its protocol instance.
//!
//! Each node owns both halves of its endpoint, and neither has a thread.
//! Each socket is registered twice (`Mirror`): in the node's own
//! poller, which reports only the node's sockets to a lock caller polling
//! before its request, and in the poller of the node's reactor, which the
//! reactor's nodes share, under the node's tag added to its token. Either
//! wait hands the endpoint back its own, untagged tokens.
//!
//! # Send path
//!
//! A node's [`Outbound`] holds one nonblocking connection per peer — so a
//! node pair has one connection per direction, owned by its sender, as in
//! a deployment of one node per host — with a plain queue of unsent
//! frames. Sending never blocks and never waits for a connect.
//!
//! A thread stepping the node *holds* each frame it sends on its peer's
//! link: when nothing is queued on the link and the link is connected, its
//! fault-panel link is open and it is not waiting for the socket to drain,
//! the frame is framed into the link's held bytes, past its loss roll.
//! When the thread is done with the node (its visit unlocks the node's
//! core) it flushes every link it held frames on: one `write` per peer
//! per visit, so a seal's NEW-ARBITER and PRIVILEGE to the same peer leave
//! together. [`Outbound::send`] is a hold and that link's flush at once.
//! A frame the link cannot take when held or flushed joins the link's
//! queue, behind everything held before it, and waits:
//! Writability, the connect, backoff and stall deadlines
//! ([`Outbound::resume_at`]) and fault transitions all end in the same
//! flush: everything queued leaves as one coalesced write, until the
//! queue is empty or the socket would block. A queue holds at most 512
//! frames; one more drops the oldest, counted in `tcp_frames_abandoned`.
//!
//! A frame is either written whole on one connection or resent whole on
//! the next: a frame cut short by a dying connection was never framed on
//! the peer, so resending it cannot duplicate delivery. A queue carries
//! one source node's frames to one peer, so it is exactly one link of the
//! [`FaultPanel`] and keeps that link's order by being a queue.
//!
//! Blocks and injected loss are evaluated at the moment a frame would
//! enter the network. A blocked link holds its frames; injected loss
//! drops a frame outright, rolled exactly once per frame, when it is held
//! on an open link or at its first write attempt from the queue (TCP
//! cannot resurrect a frame the application never wrote), mirroring the
//! simulator's loss semantics. Only queue overflow
//! abandons frames — sustained unreachability then degrades to the
//! lossy-network behaviour the fault-tolerant protocol configuration
//! already handles.
//!
//! # Receive path
//!
//! Each node owns an `Inbound`: the node's nonblocking listener and every
//! connection it accepted, all registered with the node's own [`Poller`]
//! and its reactor's (which also watches the node's inbox bell). When a connection is ready,
//! the node's reactor (or a lock caller polling before its request) reads it
//! into that connection's fixed 4 KiB buffer until a read comes back short
//! or would block, and hands every complete frame out of it in place, to
//! be decoded there; the buffer grows only while a frame larger than
//! itself is being assembled. The frames are delivered in arrival order. A corrupt length closes that
//! connection only; the peer reconnects. Shutting a node down closes its
//! listener and connections with it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tokq_obs::{Counter, Gauge, Histogram, Obs};
use tokq_protocol::types::NodeId;
use tokq_sys::{Interest, Poller};

use crate::fault::FaultPanel;

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

/// Most frames one link queues; a further frame drops the oldest.
const QUEUE_CAP: usize = 512;

/// How long a connect may stay in progress before it counts as failed.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// How long a link with bytes to write may wait for the socket to drain
/// without progress: a peer that accepts the connection but never reads
/// is treated as failed (the connection drops, the frames wait out a
/// backoff and go out on a new one).
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(2);

/// First backoff delay after a link fails, doubled on every further
/// failure up to [`BACKOFF_MAX`].
const BACKOFF_BASE: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Uniform jitter added to each backoff delay, as a fraction of it:
/// decorrelates the reconnects of links that failed together.
const BACKOFF_JITTER: f64 = 0.5;

/// Bytes of queued frames gathered into one write.
const FLUSH_BYTES: usize = 64 * 1024;

/// A frame waiting in a link's queue.
struct Queued {
    frame: Bytes,
    /// Whether injected loss was already rolled for this frame: it is
    /// rolled at the first write attempt, once, so retries do not
    /// compound the configured probability.
    loss_rolled: bool,
    /// Whether the frame was counted in `tcp_frames_requeued`: it did not
    /// leave in the [`Outbound::send`] call that queued it.
    waited: bool,
}

/// Connection state of one link.
enum Conn {
    /// No socket. After a failure the link backs off until `retry_at`;
    /// with `None` it connects as soon as a frame waits.
    Down { retry_at: Option<Instant> },
    /// A nonblocking connect is in progress, failing at `deadline`.
    Connecting {
        stream: TcpStream,
        deadline: Instant,
    },
    /// Connected. `stall` is set while bytes wait for the socket to drain:
    /// the connection fails if no write progresses by then.
    Up {
        stream: TcpStream,
        stall: Option<Instant>,
    },
}

/// One peer's outbound link: its connection and its frames.
struct Link {
    addr: SocketAddr,
    conn: Conn,
    queue: VecDeque<Queued>,
    /// Bytes of the head frame already written on the current
    /// connection. Reset when the connection fails: the frame is resent
    /// whole on the next one.
    head_written: usize,
    /// Current backoff step; zero once a write succeeds.
    delay: Duration,
    /// Whether a connection was ever established (tells reconnects from
    /// first connects).
    ever_connected: bool,
    /// Whether the socket is registered for writability.
    writable_interest: bool,
    /// Queue length last added to the shared depth gauge.
    reported: usize,
    /// Frames held for the end of the current visit, framed
    /// (`[len][sender][payload]`) and past their loss roll, in send order.
    /// Frames are held only while the queue is empty.
    held: Vec<u8>,
    /// Frames in `held`.
    held_frames: usize,
    /// Whether the link is listed in [`Outbound::dirty`].
    dirty: bool,
}

impl Link {
    /// When this link next needs the loop without a socket event.
    fn due(&self) -> Option<Instant> {
        match &self.conn {
            Conn::Down { retry_at } if !self.queue.is_empty() => *retry_at,
            Conn::Down { .. } => None,
            Conn::Connecting { deadline, .. } => Some(*deadline),
            Conn::Up { stall, .. } => *stall,
        }
    }
}

/// Send-side telemetry, interned by name in the cluster's registry.
struct SendStats {
    /// Connections established, reconnects included.
    connects: Counter,
    /// Connections established after a failure on the same link.
    reconnects: Counter,
    /// Frames that did not leave in the send call that queued them.
    frames_requeued: Counter,
    /// Frames dropped because their queue was full.
    frames_abandoned: Counter,
    /// Frames queued across every link of every node.
    outbox_depth: Gauge,
    /// Frames completed per successful write.
    frames_per_flush: Histogram,
    /// Nanoseconds spent in [`Outbound::send`].
    enqueue_ns: Histogram,
}

/// The sending half of one node's TCP endpoint: a nonblocking connection
/// and a bounded frame queue per peer, served by a [`Poller`]. See the
/// [module docs](self) for the send path.
///
/// Its sockets are registered under tokens from [`Outbound::FIRST_TOKEN`]
/// up (one per peer); the caller hands every such ready token to
/// [`Outbound::ready`], and calls [`Outbound::resume`] once
/// [`Outbound::resume_at`] has passed and after every transition of the
/// [`FaultPanel`].
pub struct Outbound {
    from: NodeId,
    links: Vec<Link>,
    panel: FaultPanel,
    /// Where every socket is registered besides the poller passed in.
    mirror: Mirror,
    /// Links holding frames for [`Outbound::flush_held`], each once.
    dirty: Vec<usize>,
    /// Reusable buffer for one coalesced write.
    buf: Vec<u8>,
    /// SplitMix64 state for backoff jitter.
    rng: u64,
    stats: SendStats,
}

impl std::fmt::Debug for Outbound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbound")
            .field("from", &self.from)
            .field("peers", &self.links.len())
            .field("pending_frames", &self.pending_frames())
            .finish()
    }
}

impl Outbound {
    /// The poller token of the link to peer 0; peer `i` uses
    /// `FIRST_TOKEN + i`. Tokens below it are free for the caller.
    pub const FIRST_TOKEN: u64 = 1 << 32;

    /// The outbound links of node `from` to every address in `peers`
    /// (indexed by node id), consulting `panel` for blocked links and
    /// injected loss. Nothing connects until a frame waits.
    ///
    /// Records the `tcp_connects`, `tcp_reconnects`,
    /// `tcp_frames_requeued` and `tcp_frames_abandoned` counters, the
    /// `tcp_outbox_depth` gauge and the `tcp_frames_per_flush` and
    /// `send_enqueue_ns` histograms into `obs`.
    pub fn new(from: NodeId, peers: Vec<SocketAddr>, obs: &Obs, panel: FaultPanel) -> Self {
        let registry = obs.registry();
        Outbound {
            from,
            links: peers
                .into_iter()
                .map(|addr| Link {
                    addr,
                    conn: Conn::Down { retry_at: None },
                    queue: VecDeque::new(),
                    head_written: 0,
                    delay: Duration::ZERO,
                    ever_connected: false,
                    writable_interest: false,
                    reported: 0,
                    held: Vec::new(),
                    held_frames: 0,
                    dirty: false,
                })
                .collect(),
            panel,
            mirror: Mirror::default(),
            dirty: Vec::new(),
            buf: Vec::new(),
            rng: 0x7C9A_B0FF ^ u64::from(from.0),
            stats: SendStats {
                connects: registry.counter("tcp_connects"),
                reconnects: registry.counter("tcp_reconnects"),
                frames_requeued: registry.counter("tcp_frames_requeued"),
                frames_abandoned: registry.counter("tcp_frames_abandoned"),
                outbox_depth: registry.gauge("tcp_outbox_depth"),
                frames_per_flush: registry.histogram("tcp_frames_per_flush"),
                enqueue_ns: registry.histogram("send_enqueue_ns"),
            },
        }
    }

    /// The same endpoint registering every socket in `mirror` too.
    /// [`Outbound::ready`] still takes the untagged token.
    #[must_use]
    pub(crate) fn mirrored(mut self, mirror: Mirror) -> Self {
        self.mirror = mirror;
        self
    }

    /// Sends `frame` to peer `to`: writes it out now if its link can take
    /// it, and queues it otherwise. Never blocks. A frame to an unknown
    /// peer is dropped.
    pub fn send(&mut self, poller: &Poller, to: NodeId, frame: Bytes) {
        let started = Instant::now();
        if to.index() < self.links.len() {
            self.hold_frame(to.index(), &frame);
            self.flush_link(poller, to.index());
            self.stats
                .enqueue_ns
                .record(started.elapsed().as_nanos() as u64);
        }
    }

    /// Holds `frame` for peer `to` until [`Outbound::flush_held`], which
    /// sends every frame held for one peer in one write. Never blocks and
    /// makes no syscall. A frame to an unknown peer is dropped.
    pub(crate) fn hold(&mut self, to: NodeId, frame: &[u8]) {
        let started = Instant::now();
        if let Some(link) = self.links.get_mut(to.index()) {
            if !link.dirty {
                link.dirty = true;
                self.dirty.push(to.index());
            }
            self.hold_frame(to.index(), frame);
            self.stats
                .enqueue_ns
                .record(started.elapsed().as_nanos() as u64);
        }
    }

    /// Sends the frames held since the last flush: on each link, every
    /// held frame leaves in one coalesced write, or joins the link's
    /// queue if the link cannot take it now.
    pub(crate) fn flush_held(&mut self, poller: &Poller) {
        while let Some(idx) = self.dirty.pop() {
            self.links[idx].dirty = false;
            self.flush_link(poller, idx);
        }
    }

    fn hold_frame(&mut self, idx: usize, frame: &[u8]) {
        let link = &mut self.links[idx];
        let open = link.queue.is_empty()
            && matches!(link.conn, Conn::Up { stall: None, .. })
            && !self.panel.is_blocked(self.from.index(), idx);
        if open {
            // Nothing is queued ahead on an open link: the frame waits
            // only for the end of the visit, unless injected loss takes
            // it now.
            if !self.panel.rolls_loss_drop() {
                encode_into(&mut link.held, self.from, frame);
                link.held_frames += 1;
            }
            return;
        }
        self.unhold(idx);
        self.enqueue(
            idx,
            Queued {
                frame: Bytes::copy_from_slice(frame),
                loss_rolled: false,
                waited: false,
            },
        );
    }

    /// Appends `queued` to link `idx`'s queue; a full queue drops its
    /// oldest frame.
    fn enqueue(&mut self, idx: usize, queued: Queued) {
        let link = &mut self.links[idx];
        if link.queue.len() >= QUEUE_CAP {
            // Drop-oldest, sparing a head frame already partly written:
            // its rest must follow on this connection.
            let oldest = usize::from(link.head_written > 0);
            link.queue.remove(oldest);
            self.stats.frames_abandoned.inc();
        }
        link.queue.push_back(queued);
    }

    /// Moves link `idx`'s held frames, whose loss is already rolled, to
    /// the back of its queue.
    fn unhold(&mut self, idx: usize) {
        let held = std::mem::take(&mut self.links[idx].held);
        let mut rest = &held[..];
        while !rest.is_empty() {
            let len = framed_len(rest);
            let queued = Queued {
                frame: Bytes::copy_from_slice(&rest[HEADER..len]),
                loss_rolled: true,
                waited: false,
            };
            self.enqueue(idx, queued);
            rest = &rest[len..];
        }
        let link = &mut self.links[idx];
        link.held = held;
        link.held.clear();
        link.held_frames = 0;
    }

    /// Sends what link `idx` holds in one write if the link is still
    /// open, queues it otherwise, and starts on the queue: flushes it if
    /// the link is connected, or connects if it is down and not backing
    /// off.
    fn flush_link(&mut self, poller: &Poller, idx: usize) {
        let link = &mut self.links[idx];
        if link.held_frames > 0 {
            let open = link.queue.is_empty() && !self.panel.is_blocked(self.from.index(), idx);
            let written = match (&mut link.conn, open) {
                (
                    Conn::Up {
                        stream,
                        stall: None,
                    },
                    true,
                ) => loop {
                    match stream.write(&link.held) {
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        result => break result.unwrap_or(0),
                    }
                },
                _ => 0,
            };
            if written == link.held.len() {
                self.stats.frames_per_flush.record(link.held_frames as u64);
                link.held.clear();
                link.held_frames = 0;
            } else {
                // What the socket did not take waits in the queue, a
                // frame cut short at its head with its written bytes
                // counted, and the flush below finds out why.
                let mut done = 0;
                let mut sent = 0;
                while done < written {
                    let len = framed_len(&link.held[done..]);
                    if done + len > written {
                        break;
                    }
                    done += len;
                    sent += 1;
                }
                link.held.drain(..done);
                link.held_frames -= sent;
                // Counted before the frames move, so that a full queue's
                // drop-oldest spares the cut head frame.
                link.head_written = written - done;
                if sent > 0 {
                    self.stats.frames_per_flush.record(sent as u64);
                }
                self.unhold(idx);
            }
        }
        let link = &mut self.links[idx];
        if !link.queue.is_empty() {
            match link.conn {
                Conn::Up { stall: None, .. } => self.flush(idx),
                Conn::Down { retry_at } if retry_at.is_none_or(|at| at <= Instant::now()) => {
                    self.connect(poller, idx);
                }
                _ => {}
            }
        }
        self.settle(poller, idx);
    }

    /// Serves a ready socket: completes a connect, notices a connection
    /// the peer closed, or writes out frames waiting for writability.
    /// Tokens that are not this endpoint's are ignored.
    pub fn ready(&mut self, poller: &Poller, token: u64) {
        let Some(idx) = token
            .checked_sub(Self::FIRST_TOKEN)
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < self.links.len())
        else {
            return;
        };
        let link = &mut self.links[idx];
        match std::mem::replace(&mut link.conn, Conn::Down { retry_at: None }) {
            Conn::Connecting { stream, .. } => {
                // Writability ends the connect either way: an error, or a
                // peer address to show for it.
                if matches!(stream.take_error(), Ok(None)) && stream.peer_addr().is_ok() {
                    link.conn = Conn::Up {
                        stream,
                        stall: None,
                    };
                    self.stats.connects.inc();
                    if link.ever_connected {
                        self.stats.reconnects.inc();
                    }
                    link.ever_connected = true;
                    self.flush(idx);
                } else {
                    self.fail(idx);
                }
            }
            Conn::Up { mut stream, stall } => {
                // Peers never write on this connection, so a readable
                // socket means the peer closed or reset it.
                let open = match stream.read(&mut [0u8; 64]) {
                    Ok(n) => n > 0,
                    Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
                };
                link.conn = Conn::Up { stream, stall };
                if open {
                    self.flush(idx);
                } else {
                    self.fail(idx);
                }
            }
            down => link.conn = down,
        }
        self.settle(poller, idx);
    }

    /// The earliest deadline of any link: a backoff to wait out, a
    /// connect or a stalled write to give up on. `None` when none is
    /// pending.
    pub fn resume_at(&self) -> Option<Instant> {
        self.links.iter().filter_map(Link::due).min()
    }

    /// Acts on every deadline that has passed and retries the links whose
    /// frames are parked behind a fault: call it once
    /// [`Outbound::resume_at`] is due and after every [`FaultPanel`]
    /// transition.
    pub fn resume(&mut self, poller: &Poller) {
        let now = Instant::now();
        for idx in 0..self.links.len() {
            let link = &self.links[idx];
            match &link.conn {
                Conn::Down { retry_at } => {
                    if !link.queue.is_empty() && retry_at.is_none_or(|at| at <= now) {
                        self.connect(poller, idx);
                    }
                }
                Conn::Connecting { deadline, .. } => {
                    if *deadline <= now {
                        self.fail(idx);
                    }
                }
                Conn::Up {
                    stall: Some(at), ..
                } => {
                    if *at <= now {
                        self.fail(idx);
                    }
                }
                Conn::Up { stall: None, .. } => {
                    if !link.queue.is_empty() {
                        self.flush(idx);
                    }
                }
            }
            self.settle(poller, idx);
        }
    }

    /// Frames queued or held across every link.
    pub fn pending_frames(&self) -> usize {
        self.links
            .iter()
            .map(|l| l.queue.len() + l.held_frames)
            .sum()
    }

    /// Starts connecting link `idx`, or backs off if even that fails.
    fn connect(&mut self, poller: &Poller, idx: usize) {
        let link = &mut self.links[idx];
        let token = Self::FIRST_TOKEN + idx as u64;
        let mirror = &self.mirror;
        let started = tokq_sys::connect_nonblocking(&link.addr).and_then(|stream| {
            stream.set_nodelay(true)?;
            let interest = Interest::READABLE.and(Interest::WRITABLE);
            mirror.register(poller, &stream, token, interest)?;
            Ok(stream)
        });
        match started {
            Ok(stream) => {
                link.conn = Conn::Connecting {
                    stream,
                    deadline: Instant::now() + CONNECT_TIMEOUT,
                };
                link.writable_interest = true;
            }
            Err(_) => self.fail(idx),
        }
    }

    /// Writes link `idx`'s queue, coalesced, until it is empty, the socket
    /// would block, the link is blocked, or the connection fails. The
    /// link must be connected.
    fn flush(&mut self, idx: usize) {
        let link = &mut self.links[idx];
        if self.panel.is_blocked(self.from.index(), idx) {
            // Parked until a fault transition: stop waiting for
            // writability, which would only report a writable socket
            // over and over.
            if let Conn::Up { stall, .. } = &mut link.conn {
                *stall = None;
            }
            return;
        }
        loop {
            // Roll injected loss for frames on their first attempt and
            // encode up to FLUSH_BYTES of the queue.
            self.buf.clear();
            let mut i = 0;
            while i < link.queue.len() && self.buf.len() < FLUSH_BYTES {
                let q = &mut link.queue[i];
                if !q.loss_rolled {
                    q.loss_rolled = true;
                    if self.panel.rolls_loss_drop() {
                        link.queue.remove(i);
                        continue;
                    }
                }
                encode_into(&mut self.buf, self.from, &q.frame);
                i += 1;
            }
            let Conn::Up { stream, stall } = &mut link.conn else {
                unreachable!("flush needs a connection");
            };
            if self.buf.is_empty() {
                *stall = None;
                return;
            }
            let bytes = &self.buf[link.head_written..];
            let written = match stream.write(bytes) {
                Ok(0) => return self.fail(idx),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    stall.get_or_insert_with(|| Instant::now() + WRITE_STALL_TIMEOUT);
                    return;
                }
                Err(_) => return self.fail(idx),
            };
            // Retire every frame the write completed; a frame it cut
            // short stays at the head with its written bytes counted.
            let mut left = link.head_written + written;
            let mut sent = 0;
            while let Some(q) = link.queue.front() {
                let len = HEADER + q.frame.len();
                if left < len {
                    break;
                }
                left -= len;
                link.queue.pop_front();
                sent += 1;
            }
            link.head_written = left;
            link.delay = Duration::ZERO;
            if sent > 0 {
                self.stats.frames_per_flush.record(sent);
            }
            if written < bytes.len() {
                // The socket buffer is full: wait for writability, and
                // give up if the peer drains nothing for too long.
                *stall = Some(Instant::now() + WRITE_STALL_TIMEOUT);
                return;
            }
        }
    }

    /// Drops link `idx`'s connection and backs off. The frames stay
    /// queued, a partly written head frame included: it goes out whole
    /// on the next connection.
    fn fail(&mut self, idx: usize) {
        let link = &mut self.links[idx];
        link.delay = if link.delay.is_zero() {
            BACKOFF_BASE
        } else {
            (link.delay * 2).min(BACKOFF_MAX)
        };
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let delay = link.delay + link.delay.mul_f64(BACKOFF_JITTER * unit);
        // Dropping the stream closes it, which also ends its registration.
        link.conn = Conn::Down {
            retry_at: Some(Instant::now() + delay),
        };
        link.head_written = 0;
        link.writable_interest = false;
    }

    /// Brings link `idx`'s bookkeeping up to date after a change: its
    /// writability interest, the depth gauge, and the requeue count of
    /// frames that stay queued.
    fn settle(&mut self, poller: &Poller, idx: usize) {
        let link = &mut self.links[idx];
        if let Conn::Up { stream, stall } = &link.conn {
            let want = stall.is_some();
            if want != link.writable_interest {
                let token = Self::FIRST_TOKEN + idx as u64;
                let interest = if want {
                    Interest::READABLE.and(Interest::WRITABLE)
                } else {
                    Interest::READABLE
                };
                if self.mirror.modify(poller, stream, token, interest).is_err() {
                    return self.fail(idx);
                }
                link.writable_interest = want;
            }
        }
        let len = link.queue.len();
        if len != link.reported {
            self.stats
                .outbox_depth
                .add(len as i64 - link.reported as i64);
            link.reported = len;
        }
        // Frames are queued at the back, and every call ends here, so the
        // frames not yet counted are a suffix of the queue.
        for q in link.queue.iter_mut().rev() {
            if q.waited {
                break;
            }
            q.waited = true;
            self.stats.frames_requeued.inc();
        }
    }
}

/// Bytes of the framed frame at the start of `framed`, header included.
fn framed_len(framed: &[u8]) -> usize {
    HEADER + u32::from_be_bytes(framed[..4].try_into().expect("4 bytes")) as usize
}

/// Appends the `[len][sender][payload]` encoding of `frame` to `buf`.
fn encode_into(buf: &mut Vec<u8>, from: NodeId, frame: &[u8]) {
    buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
    buf.extend_from_slice(&from.0.to_be_bytes());
    buf.extend_from_slice(frame);
}

impl Drop for Outbound {
    fn drop(&mut self) {
        // Closing the sockets drops whatever is still queued.
        let queued: usize = self.links.iter().map(|l| l.reported).sum();
        self.stats.outbox_depth.sub(queued as i64);
    }
}

/// A second poller in which an endpoint registers each of its sockets,
/// under the socket's token with `tag` added: the poller of the node's
/// reactor, which waits for all of the reactor's nodes at once, beside the
/// node's own poller, which reports only the node's sockets. The default
/// mirrors nothing.
#[derive(Clone, Default)]
pub(crate) struct Mirror(Option<(Arc<Poller>, u64)>);

impl Mirror {
    /// Mirrors registrations into `poller`, with `tag` added to every
    /// token.
    pub(crate) fn new(poller: Arc<Poller>, tag: u64) -> Self {
        Mirror(Some((poller, tag)))
    }

    /// Registers `fd` in `poller` under `token`, and in the mirror.
    fn register(
        &self,
        poller: &Poller,
        fd: impl AsFd,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        let fd = fd.as_fd();
        poller.register(fd, token, interest)?;
        if let Some((mirror, tag)) = &self.0 {
            if let Err(e) = mirror.register(fd, tag | token, interest) {
                let _ = poller.deregister(fd);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Changes `fd`'s interest in `poller` and in the mirror.
    fn modify(
        &self,
        poller: &Poller,
        fd: impl AsFd,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        let fd = fd.as_fd();
        poller.modify(fd, token, interest)?;
        match &self.0 {
            Some((mirror, tag)) => mirror.modify(fd, tag | token, interest),
            None => Ok(()),
        }
    }

    /// Stops reporting `fd` in `poller` and in the mirror.
    fn deregister(&self, poller: &Poller, fd: impl AsFd) {
        let fd = fd.as_fd();
        let _ = poller.deregister(fd);
        if let Some((mirror, _)) = &self.0 {
            let _ = mirror.deregister(fd);
        }
    }
}

/// Poller token of an [`Inbound`]'s listener. Accepted connections take
/// the tokens above it; the node loop keeps the ones below.
const LISTENER: u64 = 1;

/// The receiving half of a node's TCP endpoint: its nonblocking listener
/// and every connection the listener accepted, each with its own
/// [`FrameReader`]. It has no thread: a [`Poller`] reports which of its
/// descriptors are ready and [`Inbound::ready`] serves them.
pub(crate) struct Inbound {
    listener: TcpListener,
    /// Where every socket is registered besides the poller passed in.
    mirror: Mirror,
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
    /// Makes `listener` nonblocking and registers it with `poller` and
    /// `mirror`, where this endpoint registers every socket it accepts
    /// too.
    ///
    /// # Errors
    ///
    /// Either step's socket or epoll error.
    pub(crate) fn new(
        listener: TcpListener,
        poller: &Poller,
        mirror: Mirror,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        mirror.register(poller, &listener, LISTENER, Interest::READABLE)?;
        Ok(Inbound {
            listener,
            mirror,
            conns: Vec::new(),
            accept_delay: Duration::ZERO,
            paused_until: None,
        })
    }

    /// Serves one ready `token` of this endpoint: accepts every pending
    /// connection, or hands every frame a connection has ready to
    /// `frame`, sender and payload, straight from the read buffer. A
    /// connection that ended, failed or sent a corrupt length is closed,
    /// which also ends its registration.
    pub(crate) fn ready(
        &mut self,
        poller: &Poller,
        token: u64,
        frame: &mut impl FnMut(NodeId, &[u8]),
    ) {
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
        if !conn.reader.read_available(&mut conn.stream, frame) {
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
            if self
                .mirror
                .register(poller, &self.listener, LISTENER, Interest::READABLE)
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
                    self.mirror.deregister(poller, &self.listener);
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
        if self
            .mirror
            .register(poller, &stream, token, Interest::READABLE)
            .is_err()
        {
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
/// [`FrameReader::read_available`] reads what the socket holds and hands
/// out every complete frame in place, through [`FrameReader::next_frame`].
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
    /// (the socket's receive queue was emptied), handing every complete
    /// frame to `out` as it is parsed. Returns `false` once the connection
    /// must close: end of stream, a read error, or a corrupt length.
    fn read_available(&mut self, src: &mut impl Read, out: &mut impl FnMut(NodeId, &[u8])) -> bool {
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
                    Ok(Some((from, range))) => out(from, &self.buf[range]),
                    Ok(None) => break,
                    Err(CorruptFrame) => return false,
                }
            }
            if n < room {
                return true;
            }
        }
    }

    /// The sender and the payload's place in the buffer of the next
    /// complete frame, `Ok(None)` if more bytes are needed. The payload
    /// stays in place until the next read.
    fn next_frame(&mut self) -> Result<Option<(NodeId, std::ops::Range<usize>)>, CorruptFrame> {
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
        let payload = self.start + HEADER..self.start + total;
        self.start += total;
        Ok(Some((NodeId(from), payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use crossbeam::channel::{unbounded, Receiver};
    use tokq_obs::Source;
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
            let mut inbound = Inbound::new(listener, &poller, Mirror::default()).expect("inbound");
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
                        inbound.ready(&poller, token, &mut collect(&mut frames));
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

    /// A frame handler that copies every frame into `frames`.
    fn collect(frames: &mut Vec<(NodeId, Bytes)>) -> impl FnMut(NodeId, &[u8]) + '_ {
        |from, payload| frames.push((from, Bytes::copy_from_slice(payload)))
    }

    fn recv_frame(rx: &Receiver<(NodeId, Bytes)>, timeout: Duration) -> Bytes {
        rx.recv_timeout(timeout).expect("frame").1
    }

    /// One node's send side, driven from the test thread the way a node
    /// loop drives it: an [`Outbound`] and the poller its sockets are
    /// registered with.
    struct Sender {
        out: Outbound,
        poller: Poller,
        events: Events,
    }

    impl Sender {
        fn new(from: u32, peers: Vec<SocketAddr>, obs: &Obs, panel: FaultPanel) -> Self {
            Sender {
                out: Outbound::new(NodeId(from), peers, obs, panel),
                poller: Poller::new().expect("poller"),
                events: Events::with_capacity(16),
            }
        }

        /// A sender from node 1 to `peers`, with its own fault panel and
        /// telemetry switched off.
        fn plain(peers: Vec<SocketAddr>) -> Self {
            let n = peers.len().max(2);
            Self::new(
                1,
                peers,
                &Obs::disabled(Source::Runtime),
                FaultPanel::detached(n),
            )
        }

        fn send(&mut self, payload: &[u8]) {
            self.out
                .send(&self.poller, NodeId(0), Bytes::copy_from_slice(payload));
        }

        /// Serves ready sockets and due deadlines until `done` holds,
        /// for at most five seconds. Returns whether `done` held.
        fn pump_until(&mut self, mut done: impl FnMut(&Outbound) -> bool) -> bool {
            let limit = Instant::now() + Duration::from_secs(5);
            while !done(&self.out) {
                if Instant::now() >= limit {
                    return false;
                }
                self.pump_once();
            }
            true
        }

        /// One short wait on the poller, then everything it reported and
        /// every deadline that passed.
        fn pump_once(&mut self) {
            let wait = self.out.resume_at().map_or(Duration::from_millis(5), |at| {
                at.saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(5))
            });
            self.poller
                .wait(&mut self.events, Some(wait))
                .expect("wait");
            for token in self.events.tokens() {
                self.out.ready(&self.poller, token);
            }
            if self.out.resume_at().is_some_and(|at| at <= Instant::now()) {
                self.out.resume(&self.poller);
            }
        }

        fn flushed(&mut self) -> bool {
            self.pump_until(|out| out.pending_frames() == 0)
        }
    }

    #[test]
    fn frame_roundtrips_over_loopback() {
        let ep = Endpoint::bind();
        let mut sender = Sender::new(
            7,
            vec![ep.addr],
            &Obs::disabled(Source::Runtime),
            FaultPanel::detached(8),
        );
        sender.send(b"hello tcp");
        assert!(sender.flushed());
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
        let mut sender = Sender::plain(vec![ep.addr]);
        for i in 0..100u8 {
            sender.send(&[i]);
        }
        assert!(sender.flushed());
        for i in 0..100u8 {
            assert_eq!(recv_frame(&ep.frames, Duration::from_secs(5))[0], i);
        }
    }

    #[test]
    fn send_to_dead_peer_queues_without_blocking() {
        let mut sender = Sender::plain(vec![dead_addr()]);
        let started = Instant::now();
        sender.send(b"x");
        assert!(started.elapsed() < Duration::from_millis(100));
        assert_eq!(sender.out.pending_frames(), 1);
        // The refused connect backs off and the frame keeps waiting.
        assert!(sender.pump_until(|out| matches!(out.links[0].conn, Conn::Down { .. })));
        assert_eq!(sender.out.pending_frames(), 1);
    }

    #[test]
    fn queue_overflow_abandons_the_oldest_frames() {
        const EXTRA: u32 = 10;
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let panel = FaultPanel::detached(2);
        let mut sender = Sender::new(1, vec![ep.addr], &obs, panel.clone());
        panel.block(1, 0);
        let total = QUEUE_CAP as u32 + EXTRA;
        for seq in 0..total {
            sender.send(&seq.to_be_bytes());
        }
        assert_eq!(sender.out.pending_frames(), QUEUE_CAP);
        let counters = obs.registry().snapshot().counters;
        assert_eq!(counters["tcp_frames_abandoned"], u64::from(EXTRA));
        panel.heal();
        sender.out.resume(&sender.poller);
        assert!(sender.flushed());
        // The survivors are the newest frames, still in order.
        for seq in EXTRA..total {
            let frame = recv_frame(&ep.frames, Duration::from_secs(5));
            assert_eq!(frame[..], seq.to_be_bytes());
        }
        assert!(ep.frames.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(obs.registry().gauge("tcp_outbox_depth").get(), 0);
    }

    #[test]
    fn peer_reset_triggers_reconnect_and_redelivery() {
        // Raw listener so the test controls the server side of the
        // connection: accepting and dropping with data unread sends an
        // RST, deterministically killing the sender's connection.
        let obs = Obs::disabled(Source::Runtime);
        let listener = TcpListener::bind(loopback()).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut sender = Sender::new(1, vec![addr], &obs, FaultPanel::detached(2));
        sender.send(b"doomed");
        assert!(sender.flushed());
        let (first_conn, _) = listener.accept().expect("accept");
        drop(first_conn); // unread data → RST
                          // The connection's reset is reported on its socket: the link drops
                          // it before the next frame and reconnects for that frame.
        assert!(sender.pump_until(|out| matches!(out.links[0].conn, Conn::Down { .. })));
        sender.send(b"after reset");
        assert!(sender.flushed());
        let (mut conn, _) = listener.accept().expect("re-accept");
        let mut header = [0u8; 8];
        conn.read_exact(&mut header).expect("header");
        let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let mut payload = vec![0u8; len];
        conn.read_exact(&mut payload).expect("payload");
        assert_eq!(payload, b"after reset");
        let counters = obs.registry().snapshot().counters;
        assert_eq!(counters["tcp_reconnects"], 1, "{counters:?}");
        assert_eq!(counters["tcp_connects"], 2, "{counters:?}");
    }

    #[test]
    fn blocked_link_parks_frames_and_heals_in_order() {
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let rx = &ep.frames;
        let panel = FaultPanel::detached(2);
        let mut sender = Sender::new(1, vec![ep.addr], &obs, panel.clone());
        panel.block(1, 0);
        for i in 0..5u8 {
            sender.send(&[i]);
        }
        assert!(sender.pump_until(|out| matches!(out.links[0].conn, Conn::Up { .. })));
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(sender.out.pending_frames(), 5);
        panel.heal();
        sender.out.resume(&sender.poller);
        assert!(sender.flushed());
        for i in 0..5u8 {
            assert_eq!(recv_frame(rx, Duration::from_secs(5))[0], i);
        }
        assert_eq!(obs.registry().snapshot().counters["tcp_frames_requeued"], 5);
    }

    #[test]
    fn a_parked_backlog_leaves_in_one_coalesced_write() {
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let rx = &ep.frames;
        let panel = FaultPanel::detached(2);
        let mut sender = Sender::new(1, vec![ep.addr], &obs, panel.clone());
        panel.block(1, 0);
        for i in 0..32u8 {
            sender.send(&[i]);
        }
        assert!(sender.pump_until(|out| matches!(out.links[0].conn, Conn::Up { .. })));
        panel.heal();
        sender.out.resume(&sender.poller);
        assert!(sender.flushed());
        for i in 0..32u8 {
            assert_eq!(recv_frame(rx, Duration::from_secs(5))[0], i);
        }
        let snap = obs.registry().snapshot();
        assert_eq!(snap.histograms["send_enqueue_ns"].count, 32);
        let per_flush = &snap.histograms["tcp_frames_per_flush"];
        assert_eq!(
            (per_flush.count, per_flush.max),
            (1, 32),
            "one write for the whole backlog"
        );
        assert_eq!(obs.registry().gauge("tcp_outbox_depth").get(), 0);
    }

    #[test]
    fn a_stalled_link_that_gets_blocked_stops_waiting_for_writability() {
        // A peer that never reads: the link fills its socket and waits
        // for writability with a stall deadline.
        let listener = TcpListener::bind(loopback()).expect("bind");
        let panel = FaultPanel::detached(2);
        let obs = Obs::disabled(Source::Runtime);
        let mut sender = Sender::new(
            1,
            vec![listener.local_addr().expect("addr")],
            &obs,
            panel.clone(),
        );
        // 16 MiB: more than the loopback socket buffers take.
        let frame = vec![0u8; 32 * 1024];
        for _ in 0..QUEUE_CAP {
            sender.send(&frame);
        }
        assert!(
            sender.pump_until(|out| matches!(out.links[0].conn, Conn::Up { stall: Some(_), .. }))
        );
        assert!(sender.out.links[0].writable_interest);
        // Blocking the link parks its frames. Once the peer drains the
        // socket, the writability it reports finds the link blocked: the
        // link stops watching for writability (which would wake the loop
        // over and over) and nothing is due.
        panel.block(1, 0);
        let (mut peer, _) = listener.accept().expect("accept");
        peer.set_nonblocking(true).expect("nonblocking");
        let mut sink = vec![0u8; 1 << 20];
        assert!(sender.pump_until(|out| {
            while peer.read(&mut sink).is_ok_and(|n| n > 0) {}
            !out.links[0].writable_interest
        }));
        assert!(matches!(
            sender.out.links[0].conn,
            Conn::Up { stall: None, .. }
        ));
        assert_eq!(sender.out.resume_at(), None);
    }

    #[test]
    fn a_send_never_overtakes_a_queued_frame() {
        let ep = Endpoint::bind();
        let rx = &ep.frames;
        let mut sender = Sender::plain(vec![ep.addr]);
        sender.send(b"connect");
        assert!(sender.flushed());
        assert_eq!(&recv_frame(rx, Duration::from_secs(5))[..], b"connect");
        // A frame still queued on a connected, writable link, as if a
        // fault had just healed: the next send must go out behind it.
        sender.out.links[0].queue.push_back(Queued {
            frame: Bytes::from_static(b"first"),
            loss_rolled: false,
            waited: true,
        });
        sender.send(b"second");
        assert!(sender.flushed());
        assert_eq!(&recv_frame(rx, Duration::from_secs(5))[..], b"first");
        assert_eq!(&recv_frame(rx, Duration::from_secs(5))[..], b"second");
    }

    /// A sender whose link to the endpoint is connected, and the payloads
    /// it receives there; the frame that opened the link is consumed.
    fn connected(ep: &Endpoint, obs: &Obs, panel: &FaultPanel) -> Sender {
        let mut sender = Sender::new(1, vec![ep.addr], obs, panel.clone());
        sender.send(b"connect");
        assert!(sender.flushed());
        assert_eq!(
            &recv_frame(&ep.frames, Duration::from_secs(5))[..],
            b"connect"
        );
        sender
    }

    fn per_flush(obs: &Obs) -> (u64, u64) {
        let h = &obs.registry().snapshot().histograms["tcp_frames_per_flush"];
        (h.count, h.max)
    }

    #[test]
    fn frames_held_for_one_peer_in_a_visit_leave_in_one_write() {
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let mut sender = connected(&ep, &obs, &FaultPanel::detached(2));
        sender.out.hold(NodeId(0), b"new-arbiter");
        sender.out.hold(NodeId(0), b"privilege");
        assert_eq!(sender.out.pending_frames(), 2, "held until the flush");
        assert!(ep.frames.recv_timeout(Duration::from_millis(50)).is_err());
        sender.out.flush_held(&sender.poller);
        assert_eq!(sender.out.pending_frames(), 0);
        assert_eq!(
            per_flush(&obs),
            (2, 2),
            "the connect's write, then one for both"
        );
        for want in [&b"new-arbiter"[..], b"privilege"] {
            assert_eq!(&recv_frame(&ep.frames, Duration::from_secs(5))[..], want);
        }
        sender.out.flush_held(&sender.poller);
        assert_eq!(per_flush(&obs), (2, 2), "nothing held, nothing written");
    }

    #[test]
    fn a_frame_of_the_next_visit_never_overtakes_held_ones() {
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let panel = FaultPanel::detached(2);
        let mut sender = connected(&ep, &obs, &panel);
        // The first visit's frames cannot leave when it ends: they wait
        // in the queue, and the next visit's frame goes out behind them.
        sender.out.hold(NodeId(0), b"1");
        sender.out.hold(NodeId(0), b"2");
        panel.block(1, 0);
        sender.out.flush_held(&sender.poller);
        assert_eq!(sender.out.pending_frames(), 2);
        panel.heal();
        sender.out.hold(NodeId(0), b"3");
        sender.out.flush_held(&sender.poller);
        assert_eq!(sender.out.pending_frames(), 0);
        assert_eq!(per_flush(&obs), (2, 3), "one write for all three");
        // Two visits that both end on an open link keep their order too.
        sender.out.hold(NodeId(0), b"4");
        sender.out.flush_held(&sender.poller);
        sender.out.hold(NodeId(0), b"5");
        sender.out.flush_held(&sender.poller);
        for want in [b"1", b"2", b"3", b"4", b"5"] {
            assert_eq!(&recv_frame(&ep.frames, Duration::from_secs(5))[..], want);
        }
    }

    #[test]
    fn injected_loss_is_rolled_once_per_held_frame() {
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let panel = FaultPanel::detached(2);
        let mut sender = connected(&ep, &obs, &panel);
        // Rolled when held: certain loss takes each frame once.
        panel.set_loss(1.0);
        for _ in 0..3 {
            sender.out.hold(NodeId(0), b"lost");
        }
        assert_eq!(panel.injected_drops(), 3);
        assert_eq!(sender.out.pending_frames(), 0);
        sender.out.flush_held(&sender.poller);
        // Frames that survived their roll are not rolled again, whether
        // they leave at the flush or wait in the queue first.
        panel.set_loss(0.0);
        sender.out.hold(NodeId(0), b"kept");
        sender.out.hold(NodeId(0), b"parked");
        panel.set_loss(1.0);
        sender.out.flush_held(&sender.poller);
        panel.set_loss(0.0);
        sender.out.hold(NodeId(0), b"held");
        panel.block(1, 0);
        panel.set_loss(1.0);
        sender.out.flush_held(&sender.poller);
        panel.heal();
        sender.out.resume(&sender.poller);
        assert!(sender.flushed());
        for want in [&b"kept"[..], b"parked", b"held"] {
            assert_eq!(&recv_frame(&ep.frames, Duration::from_secs(5))[..], want);
        }
        assert_eq!(panel.injected_drops(), 3);
    }

    #[test]
    fn held_frames_on_a_blocked_link_park_and_heal_in_order() {
        let obs = Obs::disabled(Source::Runtime);
        let ep = Endpoint::bind();
        let panel = FaultPanel::detached(2);
        let mut sender = connected(&ep, &obs, &panel);
        let requeued = || obs.registry().snapshot().counters["tcp_frames_requeued"];
        let before = requeued();
        sender.out.hold(NodeId(0), &[1]);
        sender.out.hold(NodeId(0), &[2]);
        panel.block(1, 0);
        // A frame held once the link is blocked queues behind them.
        sender.out.hold(NodeId(0), &[3]);
        sender.out.flush_held(&sender.poller);
        sender.out.hold(NodeId(0), &[4]);
        sender.out.flush_held(&sender.poller);
        assert!(ep.frames.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(sender.out.pending_frames(), 4);
        assert_eq!(sender.out.resume_at(), None, "parked, nothing due");
        panel.heal();
        sender.out.resume(&sender.poller);
        assert!(sender.flushed());
        for i in 1..=4u8 {
            assert_eq!(recv_frame(&ep.frames, Duration::from_secs(5))[0], i);
        }
        assert_eq!(requeued() - before, 4, "each held frame that waited");
        assert_eq!(obs.registry().gauge("tcp_outbox_depth").get(), 0);
    }

    #[test]
    fn dropping_an_outbound_with_a_dead_peer_is_prompt() {
        let mut sender = Sender::plain(vec![dead_addr()]);
        sender.send(b"x");
        sender.pump_until(|out| matches!(out.links[0].conn, Conn::Down { .. }));
        let started = Instant::now();
        drop(sender);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "drop hung: {:?}",
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
        encode_into(&mut out, NodeId(from), payload);
        out
    }

    fn pump_all(chunks: Vec<Vec<u8>>) -> Vec<(NodeId, Bytes)> {
        let mut src = Chunks(chunks.into());
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        while reader.read_available(&mut src, &mut collect(&mut got)) {}
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
        while reader.read_available(&mut src, &mut collect(&mut got)) {}
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
