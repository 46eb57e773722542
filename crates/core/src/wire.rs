//! Hand-rolled binary wire codec for arbiter protocol messages.
//!
//! The runtime moves messages between nodes as opaque byte frames,
//! exactly as a socket transport would, so the encode/decode path is
//! exercised by every cluster test. The format is a compact tagged binary
//! encoding over [`bytes`]; a one-byte version prefix guards against
//! format drift.
//!
//! Version 2 adds a 16-bit **shard id** between the version byte and the
//! message tag: `[version u8][shard u16 BE][tag u8]...`. One transport
//! mesh (TCP or in-process channels) carries frames for every shard of a
//! sharded cluster; the shard id is the demultiplexing key a receiving
//! node uses to route the decoded message to the right protocol instance.
//! Transports themselves never inspect it — frames stay opaque below this
//! layer.
//!
//! [`encode_into`] appends a frame to a buffer the caller reuses, and
//! [`decode`] parses the slice it is given in place: neither allocates
//! for the frame itself.

use crate::service::ShardId;
use bytes::{Buf, Bytes};
use tokq_protocol::arbiter::{ArbiterMsg, Token, TokenStatus};
use tokq_protocol::qlist::{Entry, QList};
use tokq_protocol::types::{NodeId, Priority, SeqNum};

/// Wire format version byte. Version 2 introduced the shard id field.
pub const WIRE_VERSION: u8 = 2;

/// Errors produced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before the structure was complete.
    Truncated,
    /// The version byte did not match [`WIRE_VERSION`].
    BadVersion(u8),
    /// An unknown message or status tag was encountered.
    BadTag(u8),
    /// Trailing bytes followed a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// A read cursor over a borrowed frame (the `bytes` stand-in implements
/// [`Buf`] only for its owned [`Bytes`]).
struct Cursor<'a>(&'a [u8]);

impl Buf for Cursor<'_> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn chunk(&self) -> &[u8] {
        self.0
    }

    fn advance(&mut self, n: usize) {
        self.0 = &self.0[n..];
    }
}

/// The big-endian writes the encoder needs, on a plain byte vector.
trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
}

fn need(buf: &impl Buf, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn put_qlist(out: &mut Vec<u8>, q: &QList) {
    out.put_u32(q.len() as u32);
    for e in q.iter() {
        out.put_u32(e.node.0);
        out.put_u64(e.seq.0);
        out.put_u32(e.priority.0);
    }
}

fn get_qlist(buf: &mut Cursor<'_>) -> Result<QList, WireError> {
    need(buf, 4)?;
    let len = buf.get_u32() as usize;
    // `len` is untrusted: no pre-allocation happens here (the QList grows
    // entry by entry, each gated by `need`), so a corrupt count costs at
    // most one Truncated error — never memory.
    let mut q = QList::new();
    for _ in 0..len {
        need(buf, 16)?;
        let node = NodeId(buf.get_u32());
        let seq = SeqNum(buf.get_u64());
        let priority = Priority(buf.get_u32());
        q.push_back(Entry::with_priority(node, seq, priority));
    }
    Ok(q)
}

fn put_token(out: &mut Vec<u8>, t: &Token) {
    put_qlist(out, &t.q);
    out.put_u32(t.last_granted.len() as u32);
    for s in &t.last_granted {
        out.put_u64(s.0);
    }
    out.put_u64(t.round);
    out.put_u64(t.epoch);
    out.put_u8(u8::from(t.via_monitor));
}

fn get_token(buf: &mut Cursor<'_>) -> Result<Token, WireError> {
    let q = get_qlist(buf)?;
    need(buf, 4)?;
    let n = buf.get_u32() as usize;
    // `n` is an untrusted length prefix: clamp the pre-allocation to what
    // the remaining bytes could actually hold (8 bytes per entry), so a
    // tiny corrupt frame claiming u32::MAX entries cannot demand a ~32 GiB
    // allocation before the per-entry bounds checks reject it.
    let mut last_granted = Vec::with_capacity(n.min(buf.remaining() / 8));
    for _ in 0..n {
        need(buf, 8)?;
        last_granted.push(SeqNum(buf.get_u64()));
    }
    need(buf, 17)?;
    let round = buf.get_u64();
    let epoch = buf.get_u64();
    let via_monitor = buf.get_u8() != 0;
    Ok(Token {
        q,
        last_granted,
        round,
        epoch,
        via_monitor,
    })
}

fn put_opt_node(out: &mut Vec<u8>, node: Option<NodeId>) {
    match node {
        Some(n) => {
            out.put_u8(1);
            out.put_u32(n.0);
        }
        None => out.put_u8(0),
    }
}

fn get_opt_node(buf: &mut Cursor<'_>) -> Result<Option<NodeId>, WireError> {
    need(buf, 1)?;
    if buf.get_u8() == 0 {
        Ok(None)
    } else {
        need(buf, 4)?;
        Ok(Some(NodeId(buf.get_u32())))
    }
}

/// Encodes a message for `shard` into an owned frame.
pub fn encode(shard: ShardId, msg: &ArbiterMsg) -> Bytes {
    let mut out = Vec::with_capacity(64);
    encode_into(&mut out, shard, msg);
    Bytes::from(out)
}

/// Appends the frame [`encode`] would return to `out`.
pub fn encode_into(out: &mut Vec<u8>, shard: ShardId, msg: &ArbiterMsg) {
    out.put_u8(WIRE_VERSION);
    // Big-endian u16 shard id (the vendored `bytes` shim has no put_u16).
    out.put_u8((shard.0 >> 8) as u8);
    out.put_u8(shard.0 as u8);
    match msg {
        ArbiterMsg::Request {
            requester,
            seq,
            priority,
            hops,
        } => {
            out.put_u8(0);
            out.put_u32(requester.0);
            out.put_u64(seq.0);
            out.put_u32(priority.0);
            out.put_u32(*hops);
        }
        ArbiterMsg::Privilege(token) => {
            out.put_u8(1);
            put_token(out, token);
        }
        ArbiterMsg::NewArbiter {
            arbiter,
            q,
            prev,
            round,
            counter,
            epoch,
            monitor,
        } => {
            out.put_u8(2);
            out.put_u32(arbiter.0);
            put_qlist(out, q);
            out.put_u32(prev.0);
            out.put_u64(*round);
            out.put_u32(*counter);
            out.put_u64(*epoch);
            put_opt_node(out, *monitor);
        }
        ArbiterMsg::MonitorSubmit {
            requester,
            seq,
            priority,
        } => {
            out.put_u8(3);
            out.put_u32(requester.0);
            out.put_u64(seq.0);
            out.put_u32(priority.0);
        }
        ArbiterMsg::Warning { round } => {
            out.put_u8(4);
            out.put_u64(*round);
        }
        ArbiterMsg::Enquiry { epoch } => {
            out.put_u8(5);
            out.put_u64(*epoch);
        }
        ArbiterMsg::EnquiryReply { status } => {
            out.put_u8(6);
            out.put_u8(match status {
                TokenStatus::HadToken => 0,
                TokenStatus::HaveToken => 1,
                TokenStatus::Waiting => 2,
                TokenStatus::Idle => 3,
            });
        }
        ArbiterMsg::Resume => out.put_u8(7),
        ArbiterMsg::Invalidate { epoch } => {
            out.put_u8(8);
            out.put_u64(*epoch);
        }
        ArbiterMsg::Probe => out.put_u8(9),
        ArbiterMsg::ProbeAck { arbiter } => {
            out.put_u8(10);
            out.put_u8(u8::from(*arbiter));
        }
    }
}

/// Decodes a frame produced by [`encode`], yielding the shard it belongs
/// to together with the message.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, version mismatch, unknown tags,
/// or trailing garbage.
pub fn decode(frame: &[u8]) -> Result<(ShardId, ArbiterMsg), WireError> {
    let mut buf = Cursor(frame);
    need(&buf, 4)?;
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let shard = ShardId((u16::from(buf.get_u8()) << 8) | u16::from(buf.get_u8()));
    let tag = buf.get_u8();
    let msg = match tag {
        0 => {
            need(&buf, 20)?;
            ArbiterMsg::Request {
                requester: NodeId(buf.get_u32()),
                seq: SeqNum(buf.get_u64()),
                priority: Priority(buf.get_u32()),
                hops: buf.get_u32(),
            }
        }
        1 => ArbiterMsg::Privilege(get_token(&mut buf)?),
        2 => {
            need(&buf, 4)?;
            let arbiter = NodeId(buf.get_u32());
            let q = get_qlist(&mut buf)?;
            need(&buf, 24)?;
            let prev = NodeId(buf.get_u32());
            let round = buf.get_u64();
            let counter = buf.get_u32();
            let epoch = buf.get_u64();
            let monitor = get_opt_node(&mut buf)?;
            ArbiterMsg::NewArbiter {
                arbiter,
                q,
                prev,
                round,
                counter,
                epoch,
                monitor,
            }
        }
        3 => {
            need(&buf, 16)?;
            ArbiterMsg::MonitorSubmit {
                requester: NodeId(buf.get_u32()),
                seq: SeqNum(buf.get_u64()),
                priority: Priority(buf.get_u32()),
            }
        }
        4 => {
            need(&buf, 8)?;
            ArbiterMsg::Warning {
                round: buf.get_u64(),
            }
        }
        5 => {
            need(&buf, 8)?;
            ArbiterMsg::Enquiry {
                epoch: buf.get_u64(),
            }
        }
        6 => {
            need(&buf, 1)?;
            let status = match buf.get_u8() {
                0 => TokenStatus::HadToken,
                1 => TokenStatus::HaveToken,
                2 => TokenStatus::Waiting,
                3 => TokenStatus::Idle,
                t => return Err(WireError::BadTag(t)),
            };
            ArbiterMsg::EnquiryReply { status }
        }
        7 => ArbiterMsg::Resume,
        8 => {
            need(&buf, 8)?;
            ArbiterMsg::Invalidate {
                epoch: buf.get_u64(),
            }
        }
        9 => ArbiterMsg::Probe,
        10 => {
            need(&buf, 1)?;
            ArbiterMsg::ProbeAck {
                arbiter: buf.get_u8() != 0,
            }
        }
        t => return Err(WireError::BadTag(t)),
    };
    if buf.has_remaining() {
        return Err(WireError::TrailingBytes(buf.remaining()));
    }
    Ok((shard, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ArbiterMsg) {
        for shard in [ShardId(0), ShardId(3), ShardId(u16::MAX)] {
            let frame = encode(shard, &msg);
            let (s, back) = decode(&frame).expect("decode");
            assert_eq!(s, shard);
            assert_eq!(back, msg);
        }
    }

    fn sample_token() -> Token {
        let mut t = Token::initial(4);
        t.q.push_back(Entry::with_priority(NodeId(2), SeqNum(7), Priority(3)));
        t.q.push_back(Entry::new(NodeId(0), SeqNum(1)));
        t.last_granted = vec![SeqNum(1), SeqNum(0), SeqNum(6), SeqNum(2)];
        t.round = 42;
        t.epoch = 3;
        t.via_monitor = true;
        t
    }

    #[test]
    fn roundtrip_every_variant() {
        roundtrip(ArbiterMsg::Request {
            requester: NodeId(9),
            seq: SeqNum(u64::MAX),
            priority: Priority(5),
            hops: 2,
        });
        roundtrip(ArbiterMsg::Privilege(sample_token()));
        roundtrip(ArbiterMsg::NewArbiter {
            arbiter: NodeId(1),
            q: sample_token().q,
            prev: NodeId(0),
            round: 100,
            counter: 7,
            epoch: 2,
            monitor: Some(NodeId(3)),
        });
        roundtrip(ArbiterMsg::NewArbiter {
            arbiter: NodeId(1),
            q: QList::new(),
            prev: NodeId(0),
            round: 0,
            counter: 0,
            epoch: 0,
            monitor: None,
        });
        roundtrip(ArbiterMsg::MonitorSubmit {
            requester: NodeId(2),
            seq: SeqNum(5),
            priority: Priority(0),
        });
        roundtrip(ArbiterMsg::Warning { round: 77 });
        roundtrip(ArbiterMsg::Enquiry { epoch: 11 });
        for status in [
            TokenStatus::HadToken,
            TokenStatus::HaveToken,
            TokenStatus::Waiting,
            TokenStatus::Idle,
        ] {
            roundtrip(ArbiterMsg::EnquiryReply { status });
        }
        roundtrip(ArbiterMsg::Resume);
        roundtrip(ArbiterMsg::Invalidate { epoch: 9 });
        roundtrip(ArbiterMsg::Probe);
        roundtrip(ArbiterMsg::ProbeAck { arbiter: true });
        roundtrip(ArbiterMsg::ProbeAck { arbiter: false });
    }

    #[test]
    fn rejects_bad_version() {
        let mut frame = encode(ShardId(0), &ArbiterMsg::Warning { round: 1 }).to_vec();
        frame[0] = 99;
        assert_eq!(decode(&frame), Err(WireError::BadVersion(99)));
        // The pre-shard v1 layout must be refused, not misparsed.
        frame[0] = 1;
        assert_eq!(decode(&frame), Err(WireError::BadVersion(1)));
    }

    #[test]
    fn rejects_unknown_tag() {
        let frame = vec![WIRE_VERSION, 0, 0, 200];
        assert_eq!(decode(&frame), Err(WireError::BadTag(200)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let frame = encode(ShardId(2), &ArbiterMsg::Privilege(sample_token()));
        for cut in 0..frame.len() {
            let r = decode(&frame[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix must fail");
        }
    }

    #[test]
    fn huge_length_prefixes_fail_without_huge_allocation() {
        // A Privilege frame with an empty qlist whose last_granted count
        // claims u32::MAX entries (~32 GiB if trusted). The clamp caps the
        // pre-allocation at what the frame could actually hold (zero) and
        // the per-entry bounds check reports truncation immediately.
        let mut frame = vec![WIRE_VERSION, 0, 0, 1];
        frame.extend_from_slice(&0u32.to_be_bytes()); // qlist: empty
        frame.extend_from_slice(&u32::MAX.to_be_bytes()); // last_granted count
        assert_eq!(decode(&frame), Err(WireError::Truncated));

        // Same attack on the qlist count itself.
        let mut frame = vec![WIRE_VERSION, 0, 0, 1];
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode(&frame), Err(WireError::Truncated));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut frame = encode(ShardId(0), &ArbiterMsg::Probe).to_vec();
        frame.push(0);
        assert_eq!(decode(&frame), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn encode_into_appends_what_encode_returns() {
        let msg = ArbiterMsg::Privilege(sample_token());
        let mut out = vec![0xAA; 3];
        encode_into(&mut out, ShardId(7), &msg);
        assert_eq!(&out[..3], &[0xAA; 3], "what was there stays");
        assert_eq!(&out[3..], &encode(ShardId(7), &msg)[..]);
        // A reused buffer keeps its capacity: no allocation once warm.
        let capacity = out.capacity();
        out.clear();
        encode_into(&mut out, ShardId(7), &msg);
        assert_eq!(out.capacity(), capacity);
        assert_eq!(decode(&out), Ok((ShardId(7), msg)));
    }

    #[test]
    fn shard_rides_in_the_header() {
        // Byte layout is pinned: [version][shard hi][shard lo][tag]...
        let frame = encode(ShardId(0x0102), &ArbiterMsg::Probe);
        assert_eq!(&frame[..4], &[WIRE_VERSION, 0x01, 0x02, 9]);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadVersion(9).to_string().contains('9'));
    }
}
