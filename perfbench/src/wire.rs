//! The `wire` layer timed from outside: `tokq_core::{encode, decode}` on
//! one representative message of every kind.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tokq_core::{decode, encode, ShardId};
use tokq_protocol::arbiter::{ArbiterMsg, Token, TokenStatus};
use tokq_protocol::qlist::{Entry, QList};
use tokq_protocol::types::{NodeId, Priority, SeqNum};
use tokq_protocol::ProtocolMessage;

use crate::report::{median, Report};

/// Every arbiter message kind, in the order metrics are printed.
pub const KINDS: [&str; 11] = [
    "REQUEST",
    "PRIVILEGE",
    "NEW-ARBITER",
    "MONITOR-SUBMIT",
    "WARNING",
    "ENQUIRY",
    "ENQUIRY-REPLY",
    "RESUME",
    "INVALIDATE",
    "PROBE",
    "PROBE-ACK",
];

const BATCH: u32 = 4096;
const BATCHES: usize = 9;

/// One message of every kind for an `n`-node system whose Q-lists hold
/// `q_len` waiting requests — the size the token and NEW-ARBITER
/// broadcasts typically carry on the workload.
fn representatives(n: usize, q_len: usize) -> Vec<ArbiterMsg> {
    let mut q = QList::new();
    for i in 0..q_len {
        q.push_back(Entry::new(
            NodeId::from_index(i % n),
            SeqNum(1_000 + i as u64),
        ));
    }
    let mut token = Token::initial(n);
    token.q = q.clone();
    token.round = 12_345;
    token.epoch = 2;
    for (i, slot) in token.last_granted.iter_mut().enumerate() {
        *slot = SeqNum(1_000 + i as u64);
    }
    vec![
        ArbiterMsg::Request {
            requester: NodeId(1),
            seq: SeqNum(1_001),
            priority: Priority::default(),
            hops: 0,
        },
        ArbiterMsg::Privilege(token),
        ArbiterMsg::NewArbiter {
            arbiter: NodeId(1),
            q,
            prev: NodeId(0),
            round: 12_345,
            counter: 3,
            epoch: 2,
            monitor: Some(NodeId(0)),
        },
        ArbiterMsg::MonitorSubmit {
            requester: NodeId(1),
            seq: SeqNum(1_001),
            priority: Priority::default(),
        },
        ArbiterMsg::Warning { round: 12_345 },
        ArbiterMsg::Enquiry { epoch: 2 },
        ArbiterMsg::EnquiryReply {
            status: TokenStatus::Waiting,
        },
        ArbiterMsg::Resume,
        ArbiterMsg::Invalidate { epoch: 2 },
        ArbiterMsg::Probe,
        ArbiterMsg::ProbeAck { arbiter: true },
    ]
}

/// Median over batches of the per-call nanoseconds of `f`.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    median(&per_batch)
}

/// Times encode and decode per kind, checks every frame decodes back to
/// its message, and reports `wire.bytes_per_cs` from the workload's
/// per-kind message counts.
pub fn measure(
    report: &mut Report,
    n: usize,
    q_len: usize,
    msgs_by_kind: &BTreeMap<String, u64>,
    cs: u64,
) -> Result<(), String> {
    let shard = ShardId(0);
    let mut bytes = 0u64;
    let mut encode_ns = Vec::new();
    let mut decode_ns = Vec::new();
    for (msg, kind) in representatives(n, q_len).iter().zip(KINDS) {
        assert_eq!(msg.kind(), kind, "representative messages follow KINDS");
        let frame = encode(shard, msg);
        match decode(&frame) {
            Ok((s, back)) if s == shard && back == *msg => {}
            other => return Err(format!("wire round trip of {kind} gave {other:?}")),
        }
        bytes += frame.len() as u64 * msgs_by_kind.get(kind).copied().unwrap_or(0);
        encode_ns.push(time_ns(|| {
            black_box(encode(black_box(shard), black_box(msg)));
        }));
        decode_ns.push(time_ns(|| {
            let _ = black_box(decode(black_box(&frame)));
        }));
        report.info(format!("wire.frame_bytes.{kind}"), frame.len());
    }
    for (kind, ns) in KINDS.iter().zip(&encode_ns) {
        report.metric(format!("wire.encode_ns.{kind}"), "ns", *ns);
    }
    for (kind, ns) in KINDS.iter().zip(&decode_ns) {
        report.metric(format!("wire.decode_ns.{kind}"), "ns", *ns);
    }
    report.metric("wire.bytes_per_cs", "B", bytes as f64 / cs as f64);
    Ok(())
}
