//! Metrics collection: the three quantities the paper plots (messages per
//! CS, delay per CS, forwarded fraction) plus supporting detail.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use tokq_analysis::stats::OnlineStats;
use tokq_protocol::event::Note;
use tokq_protocol::types::NodeId;

use crate::time::SimTime;

/// Live accumulator owned by the simulation.
#[derive(Debug, Clone)]
pub struct Collector {
    warmup_cs: u64,
    n: usize,

    cs_total: u64,
    arrivals: u64,
    msgs_total: u64,
    msgs_by_kind: Tally,
    notes: Tally,
    per_node_cs: Vec<u64>,

    warmed_up: bool,
    msgs_at_warmup: u64,
    msgs_at_last_cs: u64,

    per_cs_messages: OnlineStats,
    delay: OnlineStats,
    grant_latency: OnlineStats,
    sojourn: OnlineStats,
}

impl Collector {
    /// A collector discarding the first `warmup_cs` completions.
    pub fn new(n: usize, warmup_cs: u64) -> Self {
        Collector {
            warmup_cs,
            n,
            cs_total: 0,
            arrivals: 0,
            msgs_total: 0,
            msgs_by_kind: Tally::default(),
            notes: Tally::default(),
            per_node_cs: vec![0; n],
            warmed_up: warmup_cs == 0,
            msgs_at_warmup: 0,
            msgs_at_last_cs: 0,
            per_cs_messages: OnlineStats::new(),
            delay: OnlineStats::new(),
            grant_latency: OnlineStats::new(),
            sojourn: OnlineStats::new(),
        }
    }

    /// Records one transmitted message of the given kind.
    pub fn message(&mut self, kind: &'static str) {
        self.msgs_total += 1;
        self.msgs_by_kind.add(kind);
    }

    /// Records a protocol note.
    pub fn note(&mut self, note: Note) {
        self.notes.add(note.label());
    }

    /// Records an application request arrival.
    pub fn arrival(&mut self) {
        self.arrivals += 1;
    }

    /// Records a critical-section grant (entry).
    pub fn cs_entered(&mut self, requested_at: SimTime, now: SimTime) {
        if self.warmed_up {
            self.grant_latency
                .push(now.since(requested_at).as_secs_f64());
        }
    }

    /// Records a critical-section completion.
    pub fn cs_completed(
        &mut self,
        node: NodeId,
        arrived_at: SimTime,
        requested_at: SimTime,
        now: SimTime,
    ) {
        self.cs_total += 1;
        self.per_node_cs[node.index()] += 1;
        if !self.warmed_up {
            if self.cs_total >= self.warmup_cs {
                self.warmed_up = true;
                self.msgs_at_warmup = self.msgs_total;
                self.msgs_at_last_cs = self.msgs_total;
            }
            return;
        }
        self.delay.push(now.since(requested_at).as_secs_f64());
        self.sojourn.push(now.since(arrived_at).as_secs_f64());
        let delta = self.msgs_total - self.msgs_at_last_cs;
        self.per_cs_messages.push(delta as f64);
        self.msgs_at_last_cs = self.msgs_total;
    }

    /// Completions counted after warmup.
    pub fn completed_after_warmup(&self) -> u64 {
        if self.warmed_up {
            self.cs_total.saturating_sub(self.warmup_cs)
        } else {
            0
        }
    }

    /// Total completions including warmup.
    pub fn cs_total(&self) -> u64 {
        self.cs_total
    }

    /// Freezes the collector into a [`Report`].
    pub fn finish(self, sim_end: SimTime, seed: u64) -> Report {
        let measured = self.completed_after_warmup();
        Report {
            n: self.n,
            seed,
            sim_end_secs: sim_end.as_secs_f64(),
            cs_total: self.cs_total,
            cs_measured: measured,
            arrivals: self.arrivals,
            messages_total: self.msgs_total,
            messages_measured: self.msgs_total - self.msgs_at_warmup,
            messages_by_kind: self.msgs_by_kind.into_map(),
            notes: self.notes.into_map(),
            per_node_cs: self.per_node_cs,
            per_cs_messages: self.per_cs_messages,
            delay: self.delay,
            grant_latency: self.grant_latency,
            sojourn: self.sojourn,
        }
    }
}

/// Counts per static label, one slot per label in first-seen order.
///
/// Labels come from `&'static str` literals, so a label is almost always
/// found by address over a handful of slots, with no string comparison;
/// the same text at another address falls back to comparing text.
#[derive(Debug, Clone, Default)]
struct Tally(Vec<(&'static str, u64)>);

impl Tally {
    fn add(&mut self, label: &'static str) {
        let slots = &mut self.0;
        let i = match slots.iter().position(|&(l, _)| std::ptr::eq(l, label)) {
            Some(i) => i,
            None => match slots.iter().position(|&(l, _)| l == label) {
                Some(i) => i,
                None => {
                    slots.push((label, 0));
                    slots.len() - 1
                }
            },
        };
        slots[i].1 += 1;
    }

    fn into_map(self) -> BTreeMap<String, u64> {
        self.0.into_iter().map(|(l, c)| (l.to_owned(), c)).collect()
    }
}

/// Final results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Number of nodes simulated.
    pub n: usize,
    /// RNG seed of the run.
    pub seed: u64,
    /// Virtual time at which the run ended, in seconds.
    pub sim_end_secs: f64,
    /// All critical sections completed, including warmup.
    pub cs_total: u64,
    /// Critical sections measured (after warmup).
    pub cs_measured: u64,
    /// Application request arrivals.
    pub arrivals: u64,
    /// All messages transmitted, including warmup.
    pub messages_total: u64,
    /// Messages transmitted after warmup.
    pub messages_measured: u64,
    /// Message counts per kind (whole run).
    pub messages_by_kind: BTreeMap<String, u64>,
    /// Protocol note counts (whole run).
    pub notes: BTreeMap<String, u64>,
    /// Critical sections completed per node (fairness evidence).
    pub per_node_cs: Vec<u64>,
    /// Per-completion message increments (mean = messages per CS; the
    /// paper's Figure 3 metric) with CI support.
    pub per_cs_messages: OnlineStats,
    /// Request-to-completion delay in seconds (the paper's Figure 4
    /// metric, matching X̄ which includes execution time).
    pub delay: OnlineStats,
    /// Request-to-grant latency in seconds.
    pub grant_latency: OnlineStats,
    /// Arrival-to-completion sojourn (includes local queueing).
    pub sojourn: OnlineStats,
}

impl Report {
    /// Average messages per measured critical section (Figure 3 metric).
    pub fn messages_per_cs(&self) -> f64 {
        if self.cs_measured == 0 {
            return f64::NAN;
        }
        self.messages_measured as f64 / self.cs_measured as f64
    }

    /// Average request-to-completion delay in seconds (Figure 4 metric).
    pub fn mean_delay(&self) -> f64 {
        self.delay.mean()
    }

    /// Fraction of REQUEST transmissions that were forwards (Figure 5
    /// metric): forwarded hops divided by all REQUEST-kind messages.
    pub fn forwarded_fraction(&self) -> f64 {
        let requests = self.messages_by_kind.get("REQUEST").copied().unwrap_or(0);
        if requests == 0 {
            return 0.0;
        }
        let forwarded = self.notes.get("request_forwarded").copied().unwrap_or(0);
        forwarded as f64 / requests as f64
    }

    /// Count of a protocol note by label (0 when absent).
    pub fn note_count(&self, label: &str) -> u64 {
        self.notes.get(label).copied().unwrap_or(0)
    }

    /// Count of messages of `kind` over the whole run (0 when absent).
    pub fn kind_count(&self, kind: &str) -> u64 {
        self.messages_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Jain's fairness index over per-node completion counts
    /// (1.0 = perfectly even).
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.per_node_cs.iter().map(|&c| c as f64).collect();
        let sum: f64 = xs.iter().sum();
        let sumsq: f64 = xs.iter().map(|x| x * x).sum();
        if sumsq == 0.0 {
            return 1.0;
        }
        sum * sum / (xs.len() as f64 * sumsq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_is_discarded() {
        let mut c = Collector::new(2, 2);
        let t = SimTime::from_secs_f64;
        c.message("REQUEST");
        c.cs_completed(NodeId(0), t(0.0), t(0.0), t(1.0));
        c.message("REQUEST");
        c.cs_completed(NodeId(0), t(0.0), t(0.0), t(2.0)); // warmup boundary
        c.message("REQUEST");
        c.message("PRIVILEGE");
        c.cs_completed(NodeId(1), t(2.0), t(2.5), t(3.0)); // measured
        let r = c.finish(t(3.0), 1);
        assert_eq!(r.cs_total, 3);
        assert_eq!(r.cs_measured, 1);
        assert_eq!(r.messages_measured, 2);
        assert!((r.messages_per_cs() - 2.0).abs() < 1e-12);
        assert!((r.mean_delay() - 0.5).abs() < 1e-12);
        assert!((r.sojourn.mean() - 1.0).abs() < 1e-12);
        assert_eq!(r.per_node_cs, vec![2, 1]);
    }

    #[test]
    fn forwarded_fraction_reads_notes() {
        let mut c = Collector::new(1, 0);
        c.message("REQUEST");
        c.message("REQUEST");
        c.note(Note::RequestForwarded {
            requester: NodeId(0),
            hops: 1,
        });
        let r = c.finish(SimTime::ZERO, 0);
        assert!((r.forwarded_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.note_count("request_forwarded"), 1);
        assert_eq!(r.kind_count("REQUEST"), 2);
        assert_eq!(r.kind_count("NOPE"), 0);
    }

    #[test]
    fn empty_report_is_nan_safe() {
        let c = Collector::new(3, 5);
        let r = c.finish(SimTime::ZERO, 9);
        assert!(r.messages_per_cs().is_nan());
        assert_eq!(r.forwarded_fraction(), 0.0);
        assert_eq!(r.jain_fairness(), 1.0);
    }

    #[test]
    fn tally_merges_equal_labels_at_other_addresses() {
        let mut c = Collector::new(1, 0);
        let elsewhere: &'static str = String::from("REQUEST").leak();
        c.message("REQUEST");
        c.message("PRIVILEGE");
        c.message(elsewhere);
        c.message("REQUEST");
        let r = c.finish(SimTime::ZERO, 0);
        assert_eq!(r.kind_count("REQUEST"), 3);
        assert_eq!(r.kind_count("PRIVILEGE"), 1);
        assert_eq!(r.messages_by_kind.len(), 2);
    }

    #[test]
    fn jain_fairness_detects_skew() {
        let mut c = Collector::new(2, 0);
        let t = SimTime::from_secs_f64;
        for _ in 0..10 {
            c.cs_completed(NodeId(0), t(0.0), t(0.0), t(1.0));
        }
        let r = c.finish(t(1.0), 0);
        assert!((r.jain_fairness() - 0.5).abs() < 1e-12);
    }
}
