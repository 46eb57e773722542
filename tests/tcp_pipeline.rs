//! Regression coverage for the TCP send path: `Outbound::send` must never
//! block — it writes into an established nonblocking socket or queues the
//! frame for the node loop's poller, and never waits for a connect — so a
//! dead, unreachable, or saturated peer cannot head-of-line-block traffic
//! to the healthy majority. Frames must still arrive whole, once, and in
//! per-link order, across saturation, partitions and reconnects. Also
//! fuzzes the wire codec with corrupt frames (`decode` must fail cleanly,
//! never panic, and never allocate more than the frame itself could
//! hold).
//!
//! The send-path tests drive an `Outbound` with a `tokq_sys::Poller` the
//! way a node loop does, from the test thread or from a helper thread
//! while the test thread plays the peer.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;
use tokq::core::tcp::Outbound;
use tokq::core::wire::WIRE_VERSION;
use tokq::core::{decode, encode, Cluster, FaultPanel, ShardId, WireError};
use tokq::obs::{Obs, Source};
use tokq::protocol::arbiter::{ArbiterConfig, ArbiterMsg, RecoveryConfig, Token};
use tokq::protocol::qlist::{Entry, QList};
use tokq::protocol::types::{NodeId, Priority, SeqNum, TimeDelta};
use tokq_sys::{Events, Poller};

/// Node 1's send side, driven the way its node loop drives it: an
/// [`Outbound`] and the poller its sockets are registered with.
struct Sender {
    out: Outbound,
    poller: Poller,
    events: Events,
}

impl Sender {
    fn new(peers: Vec<SocketAddr>, obs: &Obs, panel: FaultPanel) -> Self {
        Sender {
            out: Outbound::new(NodeId(1), peers, obs, panel),
            poller: Poller::new().expect("poller"),
            events: Events::with_capacity(16),
        }
    }

    fn plain(peers: Vec<SocketAddr>) -> Self {
        let panel = FaultPanel::detached(peers.len().max(2));
        Self::new(peers, &Obs::disabled(Source::Runtime), panel)
    }

    fn send(&mut self, to: u32, frame: Bytes) {
        self.out.send(&self.poller, NodeId(to), frame);
    }

    /// One short wait on the poller, then every ready socket and every
    /// deadline that passed.
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

    /// Pumps until `done` holds or `limit` passes; returns whether `done`
    /// held.
    fn pump_until(&mut self, limit: Duration, mut done: impl FnMut(&Outbound) -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while !done(&self.out) {
            if Instant::now() >= deadline {
                return false;
            }
            self.pump_once();
        }
        true
    }

    /// Keeps pumping on a helper thread until [`Background::stop`].
    fn in_background(mut self) -> Background {
        let stop = Arc::new(AtomicBool::new(false));
        let halt = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !halt.load(Ordering::SeqCst) {
                self.pump_once();
            }
            self
        });
        Background { stop, thread }
    }
}

/// A [`Sender`] pumped by a helper thread.
struct Background {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Sender>,
}

impl Background {
    fn stop(self) -> Sender {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("pump thread")
    }
}

/// A listener that accepts nothing, with its kernel accept backlog
/// pre-filled: further connection attempts neither succeed nor fail fast,
/// which is exactly the peer state that used to stall the send path in a
/// 500 ms inline `connect_timeout` on the protocol thread.
///
/// The parked streams (and the listener) must stay alive for the duration
/// of the test, so they are returned to the caller.
fn black_hole() -> (TcpListener, Vec<TcpStream>, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut parked = Vec::new();
    for _ in 0..512 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            Ok(s) => parked.push(s),
            Err(_) => break, // backlog full: the black hole is armed
        }
    }
    (listener, parked, addr)
}

fn frame_payloads(conn: &mut TcpStream, count: usize) -> Vec<Vec<u8>> {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut header = [0u8; 8];
        conn.read_exact(&mut header).expect("frame header");
        let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let mut payload = vec![0u8; len];
        conn.read_exact(&mut payload).expect("frame payload");
        out.push(payload);
    }
    out
}

/// The head-of-line regression: with one peer a connect black hole,
/// sends to it AND to a healthy peer must all return immediately (never
/// waiting for a connect), and the healthy peer's frames must flow while
/// the black-hole link is stuck connecting. A send path that connected
/// inline ran `connect_timeout` (500 ms) on the calling thread for the
/// first black-hole frame, so the loop below took > 500 ms and this test
/// failed.
#[test]
fn send_path_never_blocks_on_a_black_hole_peer() {
    let (_bh_listener, _parked, bh_addr) = black_hole();
    let healthy_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let healthy_addr = healthy_listener.local_addr().expect("addr");
    let mut sender = Sender::plain(vec![healthy_addr, bh_addr]);

    let started = Instant::now();
    for i in 0..20u8 {
        // Black hole first: an inline connect stalled right here.
        sender.send(1, Bytes::copy_from_slice(&[b'b', i]));
        sender.send(0, Bytes::copy_from_slice(&[b'h', i]));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "40 sends took {elapsed:?}: the send path blocked on the black-hole peer"
    );

    // The healthy link is unaffected: all 20 frames arrive, in order.
    let pump = sender.in_background();
    let (mut conn, _) = healthy_listener.accept().expect("healthy accept");
    let payloads = frame_payloads(&mut conn, 20);
    for (i, p) in payloads.iter().enumerate() {
        assert_eq!(p.as_slice(), &[b'h', i as u8], "healthy frames in order");
    }
    // The black-hole frames are still queued for a retry, not lost.
    let sender = pump.stop();
    assert_eq!(
        sender.out.pending_frames(),
        20,
        "black-hole frames should be pending retry"
    );
}

/// A frame from node 1 carrying `seq` in its first four bytes, padded to
/// `len` bytes.
fn numbered(seq: u32, len: usize) -> Bytes {
    let mut payload = vec![0u8; len.max(4)];
    payload[..4].copy_from_slice(&seq.to_be_bytes());
    Bytes::from(payload)
}

fn seq_of(payload: &[u8]) -> u32 {
    u32::from_be_bytes(payload[..4].try_into().expect("4-byte sequence number"))
}

/// The next whole frame's payload, or `None` at EOF. A frame cut short by
/// EOF is discarded: the sender resends it whole on its next connection.
fn next_payload(conn: &mut TcpStream) -> Option<Vec<u8>> {
    fn fill(conn: &mut TcpStream, buf: &mut [u8]) -> Option<()> {
        match conn.read_exact(buf) {
            Ok(()) => Some(()),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => None,
            Err(e) => panic!("peer read failed: {e}"),
        }
    }
    let mut header = [0u8; 8];
    fill(conn, &mut header)?;
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let mut payload = vec![0u8; len];
    fill(conn, &mut payload)?;
    Some(payload)
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.registry()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// A peer that accepts the connection but does not read: the socket
/// buffers fill, writes come up short and the link waits for writability,
/// and after the stall limit the connection drops and the link
/// reconnects. Every `send` must still return promptly, and once the
/// peer reads, every frame arrives whole, at most once and in order; the
/// only frames missing are those the bounded queue abandoned.
#[test]
fn saturated_peer_never_blocks_send_and_delivers_every_kept_frame_whole() {
    const FRAMES: u32 = 4_000;
    const FRAME_LEN: usize = 1_536;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let obs = Obs::disabled(Source::Runtime);
    let panel = FaultPanel::detached(2);
    let mut sender = Sender::new(vec![listener.local_addr().expect("addr")], &obs, panel);

    sender.send(0, numbered(0, FRAME_LEN)); // the link connects
    let (mut conn, _) = listener.accept().expect("accept");
    assert!(
        sender.pump_until(Duration::from_secs(10), |out| out.pending_frames() == 0),
        "first frame never flushed"
    );
    let mut slowest = Duration::ZERO;
    for seq in 1..FRAMES {
        let started = Instant::now();
        sender.send(0, numbered(seq, FRAME_LEN));
        slowest = slowest.max(started.elapsed());
    }
    assert!(
        slowest < Duration::from_millis(50),
        "a send into a saturated peer took {slowest:?}"
    );
    if sender.out.pending_frames() > 0 {
        // The buffers filled: let the stalled connection time out and the
        // link reconnect, so frames cut short on the first connection must
        // be resent whole on the next.
        sender.pump_until(Duration::from_secs(10), |_| {
            counter(&obs, "tcp_connects") >= 2
        });
    }

    let pump = sender.in_background();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut received = 0u64;
    let mut last: Option<u32> = None;
    let deadline = Instant::now() + Duration::from_secs(60);
    while received + counter(&obs, "tcp_frames_abandoned") < u64::from(FRAMES) {
        assert!(Instant::now() < deadline, "delivery stalled at {received}");
        match next_payload(&mut conn) {
            Some(payload) => {
                assert_eq!(payload.len(), FRAME_LEN, "torn frame");
                let seq = seq_of(&payload);
                assert!(
                    last.is_none_or(|l| seq > l),
                    "frame {seq} after {last:?}: reordered or duplicated"
                );
                last = Some(seq);
                received += 1;
            }
            None => {
                // The link gave up on this connection; its frames
                // continue on the next one.
                (conn, _) = listener.accept().expect("accept the reconnect");
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("set timeout");
            }
        }
    }
    assert_eq!(
        received + counter(&obs, "tcp_frames_abandoned"),
        u64::from(FRAMES)
    );
    let mut sender = pump.stop();
    assert!(sender.pump_until(Duration::from_secs(5), |out| out.pending_frames() == 0));
}

/// On a healthy, connected link every send after the first (connecting)
/// one writes its frame straight into the socket: nothing waits in the
/// queue, and each frame is one write.
#[test]
fn healthy_link_sends_are_direct_writes_in_order() {
    const N: u32 = 200;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let obs = Obs::disabled(Source::Runtime);
    let panel = FaultPanel::detached(2);
    let mut sender = Sender::new(vec![listener.local_addr().expect("addr")], &obs, panel);
    sender.send(0, numbered(0, 16));
    let (mut conn, _) = listener.accept().expect("accept");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    assert!(sender.pump_until(Duration::from_secs(10), |out| out.pending_frames() == 0));
    assert_eq!(next_payload(&mut conn).map(|p| seq_of(&p)), Some(0));
    let requeued = counter(&obs, "tcp_frames_requeued");
    let writes = obs
        .registry()
        .histogram("tcp_frames_per_flush")
        .summary()
        .count;
    for seq in 1..=N {
        sender.send(0, numbered(seq, 16));
        assert_eq!(sender.out.pending_frames(), 0, "frame {seq} had to wait");
    }
    assert_eq!(counter(&obs, "tcp_frames_requeued"), requeued);
    let per_flush = obs.registry().histogram("tcp_frames_per_flush").summary();
    assert_eq!(
        per_flush.count - writes,
        u64::from(N),
        "one write per frame"
    );
    for seq in 1..=N {
        let payload = next_payload(&mut conn).expect("frame");
        assert_eq!(seq_of(&payload), seq);
    }
}

/// Blocking a connected link parks its frames; frames sent before, during
/// and after the block still arrive in send order once the link heals.
#[test]
fn blocking_a_connected_link_keeps_send_order_across_heal() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let obs = Obs::disabled(Source::Runtime);
    let panel = FaultPanel::detached(2);
    let mut sender = Sender::new(vec![addr, addr], &obs, panel.clone());
    sender.send(0, numbered(0, 16));
    let (mut conn, _) = listener.accept().expect("accept");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    assert!(sender.pump_until(Duration::from_secs(10), |out| out.pending_frames() == 0));
    assert_eq!(next_payload(&mut conn).map(|p| seq_of(&p)), Some(0));
    let mut seq = 1;
    for _ in 0..20 {
        sender.send(0, numbered(seq, 16)); // before the block
        seq += 1;
    }
    panel.block(1, 0);
    for _ in 0..20 {
        sender.send(0, numbered(seq, 16)); // parked behind the block
        seq += 1;
    }
    assert_eq!(sender.out.pending_frames(), 20, "blocked frames must wait");
    panel.heal();
    for _ in 0..20 {
        // After the heal, before the node loop hears of it.
        sender.send(0, numbered(seq, 16));
        seq += 1;
    }
    sender.out.resume(&sender.poller);
    assert!(sender.pump_until(Duration::from_secs(10), |out| out.pending_frames() == 0));
    for expected in 1..seq {
        let payload = next_payload(&mut conn).expect("frame");
        assert_eq!(seq_of(&payload), expected, "send order broken");
    }
}

fn quick_ft() -> ArbiterConfig {
    ArbiterConfig {
        recovery: Some(RecoveryConfig {
            token_wait_base: TimeDelta::from_millis(100),
            token_wait_per_position: TimeDelta::from_millis(25),
            enquiry_timeout: TimeDelta::from_millis(50),
            handover_watch: TimeDelta::from_millis(200),
            probe_timeout: TimeDelta::from_millis(50),
        }),
        request_retry: Some(TimeDelta::from_millis(250)),
        ..ArbiterConfig::basic()
            .with_t_collect(TimeDelta::from_millis(1))
            .with_t_forward(TimeDelta::from_millis(1))
    }
}

/// Grant latency on the healthy majority stays bounded while one cluster
/// member is dead: rotation through the crashed node costs only the
/// protocol's own recovery timeouts (hundreds of milliseconds), never a
/// transport-level stall compounding on the protocol threads.
#[test]
fn healthy_majority_grant_latency_bounded_with_one_peer_crashed() {
    let cluster = Cluster::builder(5).config(quick_ft()).tcp().build();
    cluster.crash(4).expect("crash node 4");
    std::thread::sleep(Duration::from_millis(300)); // let recovery settle

    let mut latencies = Vec::new();
    for _round in 0..30 {
        for node in 0..4 {
            let handle = cluster.handle(node).expect("in range");
            let t0 = Instant::now();
            let guard = handle
                .try_lock_for(Duration::from_secs(10))
                .expect("healthy majority must keep acquiring");
            latencies.push(t0.elapsed());
            drop(guard);
        }
    }
    cluster.shutdown();

    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100];
    let p50 = latencies[latencies.len() / 2];
    assert!(
        p99 < Duration::from_secs(2),
        "grant p99 {p99:?} (p50 {p50:?}) with one peer dead: head-of-line blocking"
    );
}

fn sample_messages() -> Vec<ArbiterMsg> {
    let mut token = Token::initial(4);
    token
        .q
        .push_back(Entry::with_priority(NodeId(2), SeqNum(7), Priority(3)));
    token.last_granted = vec![SeqNum(1), SeqNum(0), SeqNum(6), SeqNum(2)];
    token.round = 42;
    let mut q = QList::new();
    q.push_back(Entry::new(NodeId(1), SeqNum(9)));
    vec![
        ArbiterMsg::Request {
            requester: NodeId(9),
            seq: SeqNum(17),
            priority: Priority(5),
            hops: 2,
        },
        ArbiterMsg::Privilege(token),
        ArbiterMsg::NewArbiter {
            arbiter: NodeId(1),
            q,
            prev: NodeId(0),
            round: 100,
            counter: 7,
            epoch: 2,
            monitor: Some(NodeId(3)),
        },
        ArbiterMsg::Warning { round: 77 },
    ]
}

/// The ~32 GiB allocation bug, pinned: a 12-byte Privilege frame claiming
/// `u32::MAX` token entries must fail as truncated — immediately, without
/// attempting an allocation beyond what the frame could hold. (Before the
/// length clamp this test aborted the process on the allocation attempt.)
#[test]
fn corrupt_length_prefix_fails_fast_without_giant_allocation() {
    let mut frame = vec![WIRE_VERSION, 0, 0, 1]; // shard 0, Privilege
    frame.extend_from_slice(&0u32.to_be_bytes()); // empty qlist
    frame.extend_from_slice(&u32::MAX.to_be_bytes()); // last_granted count
    let started = Instant::now();
    assert_eq!(decode(&frame), Err(WireError::Truncated));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "corrupt frame must be rejected immediately"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes through `decode`: errors allowed, panics (and
    /// allocations beyond the frame, which would abort under length-bomb
    /// inputs) are not.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode(&bytes);
    }

    /// Same, but with a valid version byte so the fuzz reaches the tag
    /// and length-prefix parsing paths instead of bouncing off the
    /// version check.
    #[test]
    fn decode_never_panics_on_versioned_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut frame = vec![WIRE_VERSION];
        frame.extend_from_slice(&bytes);
        let _ = decode(&frame);
    }

    /// Single-byte corruption of well-formed frames: every mutation must
    /// decode cleanly or fail cleanly.
    #[test]
    fn decode_never_panics_on_mutated_valid_frames(
        which in 0usize..4,
        pos in 0usize..512,
        xor in 1usize..256,
    ) {
        let msg = &sample_messages()[which];
        let mut frame = encode(ShardId(3), msg).to_vec();
        let pos = pos % frame.len();
        frame[pos] ^= xor as u8;
        let _ = decode(&frame);
    }
}
