//! Shared runtime metrics, mirroring the simulator's counters.
//!
//! Backed by the [`tokq_obs`] metrics registry: every counter is a
//! dedicated atomic found through a read-locked handle lookup, so node
//! threads never serialize on a shared map mutex the way the original
//! `Mutex<BTreeMap>` implementation did. The public snapshot API is
//! unchanged; the richer registry view (histograms, labelled counters) is
//! reachable through [`ClusterMetrics::obs`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tokq_obs::{Counter, Gauge, Histogram, HistogramSummary, Obs, Source};

use crate::service::ShardId;

/// Counter namespace for per-kind transmitted messages.
pub(crate) const MSG_SENT: &str = "msg_sent";
/// Counter namespace for protocol notes.
pub(crate) const NOTE: &str = "note";

/// Per-shard snapshot labels; clusters with more than 16 shards lump the
/// tail into one `"overflow"` label rather than allocate.
const SHARD_LABELS: [&str; 16] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

fn shard_label(shard: ShardId) -> &'static str {
    SHARD_LABELS
        .get(shard.index())
        .copied()
        .unwrap_or("overflow")
}

/// Fixed per-shard counter slots: shards 0..16 each get their own atomic
/// and the tail shares the final overflow slot. Incrementing is a single
/// indexed atomic add — these sit on the per-message hot path, where a
/// registry lookup (read-lock + map probe) per frame is measurable drag.
#[derive(Debug, Default)]
struct ShardCounters([AtomicU64; SHARD_LABELS.len() + 1]);

impl ShardCounters {
    fn slot(shard: ShardId) -> usize {
        shard.index().min(SHARD_LABELS.len())
    }

    fn inc(&self, shard: ShardId) {
        self.0[Self::slot(shard)].fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self, shard: ShardId) -> u64 {
        self.0[Self::slot(shard)].load(Ordering::Relaxed)
    }

    /// Snapshot of the non-zero slots, keyed by shard label.
    fn snapshot(&self) -> BTreeMap<String, u64> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, v)| {
                let v = v.load(Ordering::Relaxed);
                (v > 0).then(|| (shard_label(ShardId(i as u16)).to_owned(), v))
            })
            .collect()
    }
}

/// Cluster-wide counters, shared by every node.
#[derive(Debug)]
pub struct ClusterMetrics {
    obs: Obs,
    messages_total: Counter,
    cs_completed: Counter,
    cs_requests: Counter,
    cs_rerequests: Counter,
    bell_rings: Counter,
    // TCP send-path counters. The registry interns metrics by name, so
    // these are the same atomics every node's outbound links record into.
    tcp_reconnects: Counter,
    tcp_frames_requeued: Counter,
    tcp_frames_abandoned: Counter,
    tcp_outbox_depth: Gauge,
    tcp_frames_per_flush: Histogram,
    send_enqueue_ns: Histogram,
    shard_msgs: ShardCounters,
    shard_cs: ShardCounters,
}

impl Default for ClusterMetrics {
    fn default() -> Self {
        Self::on(Obs::from_env(Source::Runtime))
    }
}

impl ClusterMetrics {
    /// A fresh metrics sink on its own `TOKQ_TRACE`-filtered [`Obs`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A metrics sink recording into an existing observability handle.
    pub fn with_obs(obs: Obs) -> Arc<Self> {
        Arc::new(Self::on(obs))
    }

    fn on(obs: Obs) -> Self {
        let messages_total = obs.registry().counter("messages_total");
        let cs_completed = obs.registry().counter("cs_completed");
        let cs_requests = obs.registry().counter("cs_requests");
        let cs_rerequests = obs.registry().counter("cs_rerequests");
        let bell_rings = obs.registry().counter("bell_rings");
        let tcp_reconnects = obs.registry().counter("tcp_reconnects");
        let tcp_frames_requeued = obs.registry().counter("tcp_frames_requeued");
        let tcp_frames_abandoned = obs.registry().counter("tcp_frames_abandoned");
        let tcp_outbox_depth = obs.registry().gauge("tcp_outbox_depth");
        let tcp_frames_per_flush = obs.registry().histogram("tcp_frames_per_flush");
        let send_enqueue_ns = obs.registry().histogram("send_enqueue_ns");
        ClusterMetrics {
            obs,
            messages_total,
            cs_completed,
            cs_requests,
            cs_rerequests,
            bell_rings,
            tcp_reconnects,
            tcp_frames_requeued,
            tcp_frames_abandoned,
            tcp_outbox_depth,
            tcp_frames_per_flush,
            send_enqueue_ns,
            shard_msgs: ShardCounters::default(),
            shard_cs: ShardCounters::default(),
        }
    }

    /// The observability handle these metrics record into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Counts one transmitted message on `shard`, whose kind counter
    /// (from [`ClusterMetrics::kind_counter`]) the sending node resolved
    /// once.
    pub(crate) fn message(&self, shard: ShardId, kind: &Counter) {
        self.messages_total.inc();
        kind.inc();
        self.shard_msgs.inc(shard);
    }

    /// The `msg_sent/<kind>` counter, registering it on first use.
    pub(crate) fn kind_counter(&self, kind: &'static str) -> Counter {
        self.obs.registry().counter_with(MSG_SENT, kind)
    }

    /// The `note/<label>` counter, registering it on first use.
    pub(crate) fn note_counter(&self, label: &'static str) -> Counter {
        self.obs.registry().counter_with(NOTE, label)
    }

    pub(crate) fn cs_completed(&self, shard: ShardId) {
        self.cs_completed.inc();
        self.shard_cs.inc(shard);
    }

    pub(crate) fn cs_requested(&self, _shard: ShardId) {
        self.cs_requests.inc();
    }

    pub(crate) fn cs_rerequested(&self, _shard: ShardId) {
        self.cs_rerequests.inc();
    }

    /// Total messages transmitted so far.
    pub fn messages_total(&self) -> u64 {
        self.messages_total.get()
    }

    /// Total critical sections completed so far.
    pub fn cs_completed_total(&self) -> u64 {
        self.cs_completed.get()
    }

    /// Fresh application lock requests submitted so far (one per
    /// [`crate::MutexHandle::try_lock_for`]/[`crate::MutexHandle::lock`]
    /// that reached its node).
    pub fn cs_requests_total(&self) -> u64 {
        self.cs_requests.get()
    }

    /// Recovery-era re-requests: lock requests re-issued on behalf of
    /// waiters that survived a node crash. Counted separately so recovery
    /// traffic is not conflated with fresh demand.
    pub fn cs_rerequests_total(&self) -> u64 {
        self.cs_rerequests.get()
    }

    /// Times a node's bell was rung to wake its parked thread, over every
    /// node: by a posted control event or channel frame, or by a lock
    /// call that left the node with an earlier deadline than the one the
    /// thread waits for. An uncontended lock cycle rings nothing.
    pub fn bell_rings(&self) -> u64 {
        self.bell_rings.get()
    }

    /// The counter behind [`ClusterMetrics::bell_rings`].
    pub(crate) fn bell_ring_counter(&self) -> Counter {
        self.bell_rings.clone()
    }

    /// TCP reconnects: connection establishments after a previous failure
    /// or disconnect (zero on the channel transport).
    pub fn reconnects(&self) -> u64 {
        self.tcp_reconnects.get()
    }

    /// Frames that waited in a TCP link's queue instead of leaving in the
    /// send that produced them: behind a connect, a full socket buffer, a
    /// failure's backoff or a blocked link. They go out when the link
    /// can take them.
    pub fn frames_requeued(&self) -> u64 {
        self.tcp_frames_requeued.get()
    }

    /// Frames dropped because a TCP link's queue overflowed its bound.
    pub fn frames_abandoned(&self) -> u64 {
        self.tcp_frames_abandoned.get()
    }

    /// Frames currently queued on the TCP links of every node (waiting to
    /// be written, or partly written). Zero on the channel transport and
    /// on an idle, healthy mesh.
    pub fn outbox_depth(&self) -> i64 {
        self.tcp_outbox_depth.get()
    }

    /// Distribution of frames completed per successful TCP write: 1 for a
    /// frame sent on a healthy link, more when a queued backlog leaves in
    /// one coalesced write.
    pub fn frames_per_flush(&self) -> HistogramSummary {
        self.tcp_frames_per_flush.summary()
    }

    /// Distribution of nanoseconds a node's thread or lock caller spends in
    /// [`crate::tcp::Outbound::send`] on the TCP transport: the
    /// nonblocking `write` on a healthy link, the enqueue otherwise. It
    /// never waits for a peer, so it must not grow when a peer dies.
    pub fn send_enqueue_ns(&self) -> HistogramSummary {
        self.send_enqueue_ns.summary()
    }

    /// Average messages per completed critical section (NaN before the
    /// first completion).
    pub fn messages_per_cs(&self) -> f64 {
        let cs = self.cs_completed_total();
        if cs == 0 {
            return f64::NAN;
        }
        self.messages_total() as f64 / cs as f64
    }

    /// Snapshot of per-kind message counts.
    pub fn by_kind(&self) -> BTreeMap<String, u64> {
        self.namespace(MSG_SENT)
    }

    /// Snapshot of protocol note counts.
    pub fn notes(&self) -> BTreeMap<String, u64> {
        self.namespace(NOTE)
    }

    /// Critical sections completed so far on one shard.
    pub fn cs_completed_on(&self, shard: ShardId) -> u64 {
        self.shard_cs.get(shard)
    }

    /// Snapshot of per-shard transmitted message counts, keyed by shard
    /// label (`"0"`, `"1"`, ..., `"overflow"` past shard 15). Only shards
    /// that saw traffic appear.
    pub fn messages_by_shard(&self) -> BTreeMap<String, u64> {
        self.shard_msgs.snapshot()
    }

    /// Snapshot of per-shard completed critical sections, keyed like
    /// [`ClusterMetrics::messages_by_shard`].
    pub fn cs_completed_by_shard(&self) -> BTreeMap<String, u64> {
        self.shard_cs.snapshot()
    }

    fn namespace(&self, ns: &str) -> BTreeMap<String, u64> {
        let prefix = format!("{ns}/");
        self.obs
            .registry()
            .snapshot()
            .counters
            .into_iter()
            .filter_map(|(name, v)| name.strip_prefix(&prefix).map(|kind| (kind.to_owned(), v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ClusterMetrics::new();
        let request = m.kind_counter("REQUEST");
        m.message(ShardId(0), &request);
        m.message(ShardId(0), &request);
        m.message(ShardId(1), &m.kind_counter("PRIVILEGE"));
        m.note_counter("qlist_sealed").inc();
        m.cs_completed(ShardId(1));
        assert_eq!(m.messages_total(), 3);
        assert_eq!(m.cs_completed_total(), 1);
        assert_eq!(m.messages_per_cs(), 3.0);
        assert_eq!(m.by_kind()["REQUEST"], 2);
        assert_eq!(m.notes()["qlist_sealed"], 1);
        assert_eq!(m.messages_by_shard()["0"], 2);
        assert_eq!(m.messages_by_shard()["1"], 1);
        assert_eq!(m.cs_completed_on(ShardId(1)), 1);
        assert_eq!(m.cs_completed_on(ShardId(0)), 0);
        assert_eq!(m.cs_completed_by_shard()["1"], 1);
    }

    #[test]
    fn shard_labels_cover_overflow() {
        assert_eq!(shard_label(ShardId(15)), "15");
        assert_eq!(shard_label(ShardId(16)), "overflow");
        assert_eq!(shard_label(ShardId(u16::MAX)), "overflow");
    }

    #[test]
    fn empty_ratio_is_nan() {
        let m = ClusterMetrics::new();
        assert!(m.messages_per_cs().is_nan());
    }

    #[test]
    fn pipeline_metrics_share_registry_atomics() {
        let obs = Obs::disabled(Source::Runtime);
        let m = ClusterMetrics::with_obs(obs.clone());
        obs.registry().gauge("tcp_outbox_depth").add(3);
        obs.registry().histogram("tcp_frames_per_flush").record(4);
        obs.registry().histogram("send_enqueue_ns").record(250);
        obs.registry().counter("tcp_frames_abandoned").add(2);
        assert_eq!(m.outbox_depth(), 3);
        assert_eq!(m.frames_abandoned(), 2);
        assert_eq!(m.frames_per_flush().count, 1);
        assert_eq!(m.send_enqueue_ns().count, 1);
        assert_eq!(m.send_enqueue_ns().sum, 250);
    }

    #[test]
    fn registry_view_matches_snapshot_api() {
        let obs = Obs::disabled(Source::Runtime);
        let m = ClusterMetrics::with_obs(obs);
        m.message(ShardId(0), &m.kind_counter("REQUEST"));
        let snap = m.obs().registry().snapshot();
        assert_eq!(snap.counters["messages_total"], 1);
        assert_eq!(snap.counters["msg_sent/REQUEST"], 1);
        assert_eq!(m.by_kind()["REQUEST"], 1);
    }
}
