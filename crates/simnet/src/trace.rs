//! Structured execution traces, used to reproduce the paper's Figure 2
//! timeline and to debug protocol runs.

use std::fmt;

use serde::{Deserialize, Serialize};
use tokq_obs::{Event, Level};
use tokq_protocol::types::NodeId;

use crate::time::SimTime;

/// One traced occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// An application request arrived at the node.
    Arrival,
    /// The node transmitted a message.
    Sent {
        /// Destination.
        to: NodeId,
        /// Message kind label.
        kind: String,
    },
    /// The node received a message.
    Received {
        /// Source.
        from: NodeId,
        /// Message kind label.
        kind: String,
    },
    /// The node entered its critical section.
    EnterCs,
    /// The node exited its critical section.
    ExitCs,
    /// A protocol note.
    Note(String),
    /// The node crashed.
    Crashed,
    /// The node recovered.
    Recovered,
}

impl TraceKind {
    /// Trace target in the shared [`tokq_obs`] schema, matching the
    /// targets the threaded runtime uses (`net`, `node`, `arbiter`).
    pub fn target(&self) -> &'static str {
        match self {
            TraceKind::Sent { .. } | TraceKind::Received { .. } => "net",
            TraceKind::Note(_) => "arbiter",
            _ => "node",
        }
    }

    /// Verbosity level in the shared [`tokq_obs`] schema.
    pub fn level(&self) -> Level {
        match self {
            TraceKind::Sent { .. } | TraceKind::Received { .. } => Level::Trace,
            TraceKind::Crashed | TraceKind::Recovered => Level::Info,
            _ => Level::Debug,
        }
    }
}

/// A timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// The node it happened at.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Converts into the shared [`tokq_obs`] event schema.
    ///
    /// Event names and fields match what the threaded runtime emits
    /// (`msg_sent`, `msg_recv`, `cs_granted`, `cs_released`, note labels,
    /// `crashed`, `recovered`), so a simulator JSONL stream and a runtime
    /// one can be diffed line-for-line apart from the `ts`/`src` stamps.
    pub fn to_obs_event(&self) -> Event {
        let ev = match &self.kind {
            TraceKind::Arrival => Event::new("node", Level::Debug, "arrival"),
            TraceKind::Sent { to, kind } => Event::new("net", Level::Trace, "msg_sent")
                .field("to", &to.0)
                .field("kind", kind),
            TraceKind::Received { from, kind } => Event::new("net", Level::Trace, "msg_recv")
                .field("from", &from.0)
                .field("kind", kind),
            TraceKind::EnterCs => Event::new("node", Level::Debug, "cs_granted"),
            TraceKind::ExitCs => Event::new("node", Level::Debug, "cs_released"),
            TraceKind::Note(label) => Event::new("arbiter", Level::Debug, label),
            TraceKind::Crashed => Event::new("node", Level::Info, "crashed"),
            TraceKind::Recovered => Event::new("node", Level::Info, "recovered"),
        };
        let mut ev = ev.node(u64::from(self.node.0));
        ev.ts = self.at.as_secs_f64();
        ev
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:>4} ", self.at, self.node.to_string())?;
        match &self.kind {
            TraceKind::Arrival => write!(f, "request arrives"),
            TraceKind::Sent { to, kind } => write!(f, "sends {kind} to {to}"),
            TraceKind::Received { from, kind } => write!(f, "receives {kind} from {from}"),
            TraceKind::EnterCs => write!(f, "ENTERS critical section"),
            TraceKind::ExitCs => write!(f, "exits critical section"),
            TraceKind::Note(s) => write!(f, "[{s}]"),
            TraceKind::Crashed => write!(f, "CRASHES"),
            TraceKind::Recovered => write!(f, "recovers"),
        }
    }
}

/// A bounded in-memory trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    cap: usize,
    events: Vec<TraceEvent>,
    truncated: bool,
}

impl Trace {
    /// A trace that records up to `cap` events, or nothing when disabled.
    pub fn new(enabled: bool, cap: usize) -> Self {
        Trace {
            enabled,
            cap,
            events: Vec::new(),
            truncated: false,
        }
    }

    /// Records an event (no-op when disabled or full).
    pub fn push(&mut self, at: SimTime, node: NodeId, kind: TraceKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.cap {
            self.truncated = true;
            return;
        }
        self.events.push(TraceEvent { at, node, kind });
    }

    /// True when this trace records events.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// True if events were discarded after hitting the cap.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Renders the trace as one line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        if self.truncated {
            out.push_str("... (trace truncated)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, 10);
        t.push(SimTime::ZERO, NodeId(0), TraceKind::Arrival);
        assert!(t.events().is_empty());
        assert!(!t.truncated());
    }

    #[test]
    fn cap_truncates() {
        let mut t = Trace::new(true, 2);
        for i in 0..5 {
            t.push(SimTime::from_nanos(i), NodeId(0), TraceKind::EnterCs);
        }
        assert_eq!(t.events().len(), 2);
        assert!(t.truncated());
        assert!(t.render().contains("truncated"));
    }

    fn all_kinds() -> Vec<TraceKind> {
        vec![
            TraceKind::Arrival,
            TraceKind::Sent {
                to: NodeId(4),
                kind: "PRIVILEGE".into(),
            },
            TraceKind::Received {
                from: NodeId(1),
                kind: "REQUEST".into(),
            },
            TraceKind::EnterCs,
            TraceKind::ExitCs,
            TraceKind::Note("qlist_sealed".into()),
            TraceKind::Crashed,
            TraceKind::Recovered,
        ]
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;
        use serde::{Deserialize, Serialize};

        fn msg_kind() -> BoxedStrategy<String> {
            prop_oneof![
                Just("REQUEST".to_owned()),
                Just("PRIVILEGE".to_owned()),
                Just("NEW-ARBITER".to_owned()),
                Just("TOKEN-WARNING".to_owned()),
            ]
            .boxed()
        }

        fn kind_strategy() -> BoxedStrategy<TraceKind> {
            prop_oneof![
                Just(TraceKind::Arrival),
                (0u32..64, msg_kind()).prop_map(|(to, kind)| TraceKind::Sent {
                    to: NodeId(to),
                    kind
                }),
                (0u32..64, msg_kind()).prop_map(|(from, kind)| TraceKind::Received {
                    from: NodeId(from),
                    kind
                }),
                Just(TraceKind::EnterCs),
                Just(TraceKind::ExitCs),
                Just(TraceKind::Note("token_regenerated".to_owned())),
                // Exercises JSON string escaping in the JSONL schema.
                Just(TraceKind::Note("weird \"label\"\n\t\\x".to_owned())),
                Just(TraceKind::Crashed),
                Just(TraceKind::Recovered),
            ]
            .boxed()
        }

        proptest! {
            #[test]
            fn jsonl_reparse_is_lossless(
                at_ns in 0u64..2_000_000_000_000,
                node in 0u32..128,
                kind in kind_strategy(),
            ) {
                let ev = TraceEvent {
                    at: SimTime::from_nanos(at_ns),
                    node: NodeId(node),
                    kind,
                };
                // Serde value-tree round trip.
                let back = TraceEvent::deserialize(&ev.serialize()).expect("serde");
                prop_assert_eq!(&back, &ev);
                // Obs JSONL schema round trip: render, parse, compare.
                let mut obs_ev = ev.to_obs_event();
                obs_ev.src = tokq_obs::event::Source::Sim;
                let line = obs_ev.to_jsonl();
                let reparsed = Event::from_jsonl(&line).expect("jsonl");
                prop_assert_eq!(reparsed, obs_ev);
            }
        }
    }

    #[test]
    fn serde_roundtrip_every_kind() {
        use serde::{Deserialize, Serialize};
        for kind in all_kinds() {
            let ev = TraceEvent {
                at: SimTime::from_secs_f64(3.25),
                node: NodeId(7),
                kind,
            };
            let v = ev.serialize();
            let back = TraceEvent::deserialize(&v).expect("roundtrip");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn obs_event_jsonl_roundtrips_every_kind() {
        use tokq_obs::event::Source;
        for kind in all_kinds() {
            let ev = TraceEvent {
                at: SimTime::from_nanos(1_234_567_890),
                node: NodeId(3),
                kind,
            };
            let mut obs_ev = ev.to_obs_event();
            obs_ev.src = Source::Sim;
            let line = obs_ev.to_jsonl();
            let back = Event::from_jsonl(&line).expect("jsonl parse");
            assert_eq!(back, obs_ev, "lossy JSONL for {line}");
            assert_eq!(back.node, Some(3));
            assert_eq!(back.target, ev.kind.target());
            assert_eq!(back.level, ev.kind.level());
        }
    }

    #[test]
    fn obs_event_names_match_runtime_vocabulary() {
        let names: Vec<String> = all_kinds()
            .into_iter()
            .map(|kind| {
                TraceEvent {
                    at: SimTime::ZERO,
                    node: NodeId(0),
                    kind,
                }
                .to_obs_event()
                .name
            })
            .collect();
        assert_eq!(
            names,
            [
                "arrival",
                "msg_sent",
                "msg_recv",
                "cs_granted",
                "cs_released",
                "qlist_sealed",
                "crashed",
                "recovered"
            ]
        );
    }

    #[test]
    fn display_formats_read_naturally() {
        let ev = TraceEvent {
            at: SimTime::from_secs_f64(1.5),
            node: NodeId(2),
            kind: TraceKind::Sent {
                to: NodeId(4),
                kind: "PRIVILEGE".into(),
            },
        };
        let s = ev.to_string();
        assert!(s.contains("n2"), "{s}");
        assert!(s.contains("sends PRIVILEGE to n4"), "{s}");
    }
}
