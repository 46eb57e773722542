//! Regression coverage for the TCP send pipeline: `Wire::send` must never
//! block — it writes into an established nonblocking socket or enqueues
//! for the peer's writer thread, and never connects — so a dead,
//! unreachable, or saturated peer cannot head-of-line-block traffic to
//! the healthy majority. Frames written directly by the sending thread
//! and frames routed through the writer must still arrive whole, once,
//! and in per-link order, across saturation, partitions and reconnects.
//! Also fuzzes the wire codec with corrupt frames (`decode` must fail
//! cleanly, never panic, and never allocate more than the frame itself
//! could hold).

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;
use tokq::core::tcp::{BackoffPolicy, TcpSender};
use tokq::core::transport::{Envelope, Wire};
use tokq::core::wire::WIRE_VERSION;
use tokq::core::{decode, encode, Cluster, FaultPanel, ShardId, WireError};
use tokq::obs::{Obs, Source};
use tokq::protocol::arbiter::{ArbiterConfig, ArbiterMsg, RecoveryConfig, Token};
use tokq::protocol::qlist::{Entry, QList};
use tokq::protocol::types::{NodeId, Priority, SeqNum, TimeDelta};

/// A listener that accepts nothing, with its kernel accept backlog
/// pre-filled: further connection attempts neither succeed nor fail fast,
/// which is exactly the peer state that used to stall `Wire::send` in a
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

/// The head-of-line regression the writer pipeline exists to fix: with
/// one peer a connect black hole, sends to it AND to a healthy peer must
/// all return immediately (never connecting), and the healthy peer's frames
/// must flow while the black-hole writer is stuck connecting. The old
/// inline send path ran `connect_timeout` (500 ms) on the calling thread
/// for the first black-hole frame, so the loop below took > 500 ms and
/// this test failed.
#[test]
fn send_path_never_blocks_on_a_black_hole_peer() {
    let (_bh_listener, _parked, bh_addr) = black_hole();
    let healthy_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let healthy_addr = healthy_listener.local_addr().expect("addr");
    let sender = TcpSender::new(vec![healthy_addr, bh_addr]);

    let started = Instant::now();
    for i in 0..20u8 {
        // Black hole first: the old code stalled right here.
        sender.send(Envelope {
            from: NodeId(0),
            to: NodeId(1),
            frame: Bytes::copy_from_slice(&[b'b', i]),
        });
        sender.send(Envelope {
            from: NodeId(0),
            to: NodeId(0),
            frame: Bytes::copy_from_slice(&[b'h', i]),
        });
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "40 sends took {elapsed:?}: the send path blocked on the black-hole peer"
    );

    // The healthy link is unaffected: all 20 frames arrive, in order.
    let (mut conn, _) = healthy_listener.accept().expect("healthy accept");
    let payloads = frame_payloads(&mut conn, 20);
    for (i, p) in payloads.iter().enumerate() {
        assert_eq!(p.as_slice(), &[b'h', i as u8], "healthy frames in order");
    }
    // The black-hole frames are parked (queued or in-flight), not lost.
    assert!(
        sender.pending_frames() >= 1,
        "black-hole frames should be pending retry"
    );
    sender.shutdown();
}

/// An envelope from `from` to node 0 carrying `seq` in its first four
/// bytes, padded to `len` bytes.
fn numbered(from: u32, seq: u32, len: usize) -> Envelope {
    let mut payload = vec![0u8; len.max(4)];
    payload[..4].copy_from_slice(&seq.to_be_bytes());
    Envelope {
        from: NodeId(from),
        to: NodeId(0),
        frame: Bytes::from(payload),
    }
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
/// buffers fill, direct writes come up short and leave tails for the
/// writer, and the writer's stalled writes time out and reconnect. Every
/// `send` must still return promptly, and once the peer reads, every
/// frame arrives whole, at most once and in order; the only frames
/// missing are those the bounded outbox abandoned.
#[test]
fn saturated_peer_never_blocks_send_and_delivers_every_kept_frame_whole() {
    const FRAMES: u32 = 4_000;
    const FRAME_LEN: usize = 1_536;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let obs = Obs::disabled(Source::Runtime);
    let sender = TcpSender::with_obs(vec![listener.local_addr().expect("addr")], &obs);

    sender.send(numbered(1, 0, FRAME_LEN)); // the writer connects
    let (mut conn, _) = listener.accept().expect("accept");
    // Once the first frame is out the link is idle, so the next sends
    // take the direct path until the socket buffer fills.
    let deadline = Instant::now() + Duration::from_secs(10);
    while sender.pending_frames() > 0 {
        assert!(Instant::now() < deadline, "first frame never flushed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut slowest = Duration::ZERO;
    for seq in 1..FRAMES {
        let started = Instant::now();
        sender.send(numbered(1, seq, FRAME_LEN));
        slowest = slowest.max(started.elapsed());
    }
    assert!(
        slowest < Duration::from_millis(50),
        "a send into a saturated peer took {slowest:?}"
    );
    if sender.pending_frames() > 0 {
        // The buffers filled: let the writer's stalled write time out and
        // reconnect, so frames cut short on the first connection must be
        // resent whole on the next.
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter(&obs, "tcp_connects") < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

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
                // The writer gave up on this connection; its frames
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
    assert_eq!(sender.pending_frames(), 0);
    sender.shutdown();
}

/// On a healthy, connected link every send after the first (connecting)
/// one is written straight into the socket by the sending thread.
#[test]
fn healthy_link_sends_are_direct_writes_in_order() {
    const N: u32 = 200;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let obs = Obs::disabled(Source::Runtime);
    let sender = TcpSender::with_obs(vec![listener.local_addr().expect("addr")], &obs);
    sender.send(numbered(1, 0, 16));
    let (mut conn, _) = listener.accept().expect("accept");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut next = 0u32;
    // Warm up until one send goes direct. The writer is idle from then
    // on: it takes the connection lock only with frames pending, and a
    // direct write leaves none.
    while counter(&obs, "tcp_direct_writes") == 0 {
        let payload = next_payload(&mut conn).expect("warm-up frame");
        assert_eq!(seq_of(&payload), next);
        next += 1;
        assert!(next < 100, "no send took the direct path");
        sender.send(numbered(1, next, 16));
    }
    next += 1; // the direct frame is read below, in order
    let base = counter(&obs, "tcp_direct_writes");
    for seq in next..next + N {
        sender.send(numbered(1, seq, 16));
    }
    assert_eq!(counter(&obs, "tcp_direct_writes") - base, u64::from(N));
    for seq in next - 1..next + N {
        let payload = next_payload(&mut conn).expect("frame");
        assert_eq!(seq_of(&payload), seq);
    }
    sender.shutdown();
}

/// Blocking a connected link diverts its frames from the direct path into
/// the outbox; frames sent before, during and after the block still
/// arrive in send order once the link heals.
#[test]
fn blocking_a_connected_link_keeps_send_order_across_heal() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let obs = Obs::disabled(Source::Runtime);
    let panel = FaultPanel::detached(2);
    let sender = TcpSender::with_panel(
        vec![addr, addr],
        &obs,
        panel.clone(),
        BackoffPolicy::default(),
    );
    sender.send(numbered(1, 0, 16));
    let (mut conn, _) = listener.accept().expect("accept");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    assert_eq!(next_payload(&mut conn).map(|p| seq_of(&p)), Some(0));
    let mut seq = 1;
    for _ in 0..20 {
        sender.send(numbered(1, seq, 16)); // before the block
        seq += 1;
    }
    panel.block(1, 0);
    for _ in 0..20 {
        sender.send(numbered(1, seq, 16)); // held in the outbox
        seq += 1;
    }
    assert!(sender.pending_frames() >= 20, "blocked frames must wait");
    panel.heal();
    for _ in 0..20 {
        sender.send(numbered(1, seq, 16)); // after the heal
        seq += 1;
    }
    for expected in 1..seq {
        let payload = next_payload(&mut conn).expect("frame");
        assert_eq!(seq_of(&payload), expected, "send order broken");
    }
    sender.shutdown();
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
