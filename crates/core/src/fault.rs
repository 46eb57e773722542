//! Runtime-mutable fault injection for the live cluster.
//!
//! A [`FaultPanel`] is a shared control surface the transports consult on
//! every frame: a per-link block matrix (partitions), plus an injected
//! extra loss probability (loss bursts). Unlike the simulator's
//! `tokq_simnet`-style scripted fault plans, the panel is mutated *while
//! the cluster runs* — by tests, by the chaos soak driver
//! ([`crate::chaos`]), or by an operator poking at a live system. Every
//! transition emits a structured obs event on the `fault` target, so a
//! flight-recorder dump shows exactly which faults were active when
//! something went wrong.
//!
//! Semantics match the simulator's network model: frames already in
//! flight when a partition starts still deliver (`crates/simnet`'s
//! `crosses_partition` does the same). The channel transport evaluates
//! blocks and loss at *send* time; the TCP transport evaluates them when
//! the sending node writes the frame into its socket, which a blocked
//! link delays until the heal. Both points are "the moment the frame
//! would enter the network", so the observable semantics match.
//!
//! Transports may register wakers ([`FaultPanel`] calls every waker on
//! every transition): a TCP cluster's waker posts the transition to every
//! node's inbox, so a node retries the links parked behind a block the
//! moment they heal, with no timed polling.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use tokq_obs::{Counter, Event, Level, Obs, Source};

/// Trace target for fault-injection transitions.
const T_FAULT: &str = "fault";

struct PanelInner {
    n: usize,
    /// Row-major `n × n` link-block matrix: `blocked[from * n + to]`.
    blocked: Vec<AtomicBool>,
    /// Extra drop probability injected on top of the configured network
    /// loss, stored as `f64` bits.
    loss_bits: AtomicU64,
    /// SplitMix64 state for injected-loss rolls.
    rng: AtomicU64,
    obs: Obs,
    /// Frames dropped because their link was blocked.
    blocked_drops: Counter,
    /// Frames dropped by injected (panel) loss.
    injected_drops: Counter,
    /// Fault transitions applied (block/unblock/partition/heal/loss).
    transitions: Counter,
    /// Transport wakers, all invoked after every transition. Registration
    /// is rare (transport construction); invocation is lock-read only.
    wakers: RwLock<Vec<Box<dyn Fn() + Send + Sync>>>,
}

/// A shared, runtime-mutable fault surface for a cluster's transports.
///
/// Cheap to clone; all clones share state. Obtain a cluster's panel via
/// [`crate::Cluster::fault_panel`], or build one directly for standalone
/// transports.
///
/// # Examples
///
/// ```
/// use tokq_core::fault::FaultPanel;
///
/// let panel = FaultPanel::detached(4);
/// panel.partition(&[&[0, 1], &[2, 3]]);
/// assert!(panel.is_blocked(0, 2));
/// assert!(!panel.is_blocked(0, 1));
/// panel.heal();
/// assert!(!panel.is_blocked(0, 2));
/// ```
#[derive(Clone)]
pub struct FaultPanel {
    inner: Arc<PanelInner>,
}

impl std::fmt::Debug for FaultPanel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPanel")
            .field("n", &self.inner.n)
            .field("blocked_links", &self.blocked_links())
            .field("loss", &self.loss())
            .finish()
    }
}

impl FaultPanel {
    /// A panel for `n` nodes recording transitions and drop counters
    /// (`fault_blocked_drops`, `fault_injected_drops`,
    /// `fault_transitions`) into `obs`.
    pub fn new(n: usize, obs: &Obs) -> Self {
        FaultPanel {
            inner: Arc::new(PanelInner {
                n,
                blocked: (0..n * n).map(|_| AtomicBool::new(false)).collect(),
                loss_bits: AtomicU64::new(0f64.to_bits()),
                rng: AtomicU64::new(0x5EED_FA01),
                obs: obs.clone(),
                blocked_drops: obs.registry().counter("fault_blocked_drops"),
                injected_drops: obs.registry().counter("fault_injected_drops"),
                transitions: obs.registry().counter("fault_transitions"),
                wakers: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Registers a waker invoked after every fault transition. A TCP
    /// cluster uses this to re-flush parked frames the instant a link
    /// heals, instead of polling on a timer. Wakers must be cheap and
    /// non-blocking (the TCP one posts one event to each node's inbox).
    pub(crate) fn add_waker(&self, waker: Box<dyn Fn() + Send + Sync>) {
        self.inner.wakers.write().push(waker);
    }

    /// Invokes every registered waker.
    fn wake_all(&self) {
        for w in self.inner.wakers.read().iter() {
            w();
        }
    }

    /// A panel with observability disabled (tests, standalone transports).
    pub fn detached(n: usize) -> Self {
        Self::new(n, &Obs::disabled(Source::Runtime))
    }

    /// Number of nodes the panel covers.
    pub fn len(&self) -> usize {
        self.inner.n
    }

    /// True when the panel covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.inner.n == 0
    }

    fn event(&self, name: &'static str) -> Option<Event> {
        if self.inner.obs.enabled(T_FAULT, Level::Info) {
            Some(Event::new(T_FAULT, Level::Info, name))
        } else {
            None
        }
    }

    fn emit(&self, event: Option<Event>) {
        if let Some(e) = event {
            self.inner.obs.emit(e);
        }
    }

    fn warn_range(&self, name: &'static str, node: usize) {
        if self.inner.obs.enabled(T_FAULT, Level::Info) {
            self.inner.obs.emit(
                Event::new(T_FAULT, Level::Info, name)
                    .field("node", &(node as u64))
                    .field("n", &(self.inner.n as u64)),
            );
        }
    }

    fn set_link(&self, from: usize, to: usize, blocked: bool) {
        self.inner.blocked[from * self.inner.n + to].store(blocked, Ordering::Relaxed);
    }

    /// Blocks the directed link `from → to`. Out-of-range indices are a
    /// warn-event no-op.
    pub fn block(&self, from: usize, to: usize) {
        if from >= self.inner.n || to >= self.inner.n {
            self.warn_range("block_out_of_range", from.max(to));
            return;
        }
        self.inner.transitions.inc();
        self.set_link(from, to, true);
        self.emit(
            self.event("link_blocked")
                .map(|e| e.field("from", &(from as u64)).field("to", &(to as u64))),
        );
        self.wake_all();
    }

    /// Unblocks the directed link `from → to`. Out-of-range indices are a
    /// warn-event no-op.
    pub fn unblock(&self, from: usize, to: usize) {
        if from >= self.inner.n || to >= self.inner.n {
            self.warn_range("unblock_out_of_range", from.max(to));
            return;
        }
        self.inner.transitions.inc();
        self.set_link(from, to, false);
        self.emit(
            self.event("link_unblocked")
                .map(|e| e.field("from", &(from as u64)).field("to", &(to as u64))),
        );
        self.wake_all();
    }

    /// Blocks both directions between `a` and `b` (a symmetric link cut).
    pub fn block_pair(&self, a: usize, b: usize) {
        self.block(a, b);
        self.block(b, a);
    }

    /// Installs a partition: nodes in different `groups` cannot exchange
    /// frames in either direction; nodes within one group (and nodes not
    /// listed in any group) keep their links. Replaces the whole block
    /// matrix — previous blocks are cleared first. Out-of-range node
    /// indices inside a group are warn-event no-ops.
    pub fn partition(&self, groups: &[&[usize]]) {
        let n = self.inner.n;
        for link in &self.inner.blocked {
            link.store(false, Ordering::Relaxed);
        }
        let mut group_of = vec![usize::MAX; n];
        for (gi, group) in groups.iter().enumerate() {
            for &node in group.iter() {
                if node >= n {
                    self.warn_range("partition_out_of_range", node);
                    continue;
                }
                group_of[node] = gi;
            }
        }
        for from in 0..n {
            for to in 0..n {
                // Unlisted nodes (usize::MAX) stay connected to everyone.
                let cut = group_of[from] != group_of[to]
                    && group_of[from] != usize::MAX
                    && group_of[to] != usize::MAX;
                self.set_link(from, to, cut);
            }
        }
        self.inner.transitions.inc();
        self.emit(self.event("partitioned").map(|e| {
            e.field("groups", &(groups.len() as u64))
                .field("blocked_links", &self.blocked_links())
        }));
        self.wake_all();
    }

    /// Clears every blocked link and the injected loss: the network is
    /// whole again.
    pub fn heal(&self) {
        for link in &self.inner.blocked {
            link.store(false, Ordering::Relaxed);
        }
        self.inner
            .loss_bits
            .store(0f64.to_bits(), Ordering::Relaxed);
        self.inner.transitions.inc();
        self.emit(self.event("healed"));
        self.wake_all();
    }

    /// Sets the injected extra loss probability (on top of any configured
    /// [`crate::NetOptions`] loss).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a probability.
    pub fn set_loss(&self, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.inner
            .loss_bits
            .store(loss.to_bits(), Ordering::Relaxed);
        self.inner.transitions.inc();
        self.emit(self.event("loss_set").map(|e| e.field("prob", &loss)));
        self.wake_all();
    }

    /// The currently injected extra loss probability.
    pub fn loss(&self) -> f64 {
        f64::from_bits(self.inner.loss_bits.load(Ordering::Relaxed))
    }

    /// True when the directed link `from → to` is blocked. Links outside
    /// the panel's matrix are never blocked: the panel only injects faults
    /// on the nodes it was sized for (senders may carry foreign ids, e.g.
    /// a standalone [`crate::tcp::Outbound`] built for a node id beyond a
    /// small panel).
    pub fn is_blocked(&self, from: usize, to: usize) -> bool {
        if from >= self.inner.n || to >= self.inner.n {
            return false;
        }
        self.inner.blocked[from * self.inner.n + to].load(Ordering::Relaxed)
    }

    /// Number of currently blocked directed links.
    pub fn blocked_links(&self) -> u64 {
        self.inner
            .blocked
            .iter()
            .filter(|b| b.load(Ordering::Relaxed))
            .count() as u64
    }

    /// True when no link is blocked and no loss is injected.
    pub fn is_quiet(&self) -> bool {
        self.blocked_links() == 0 && self.loss() == 0.0
    }

    /// Transport hook: returns `true` when a frame `from → to` may pass
    /// right now, counting the drop otherwise. Evaluates the block matrix
    /// first, then rolls the injected loss.
    pub fn admits(&self, from: usize, to: usize) -> bool {
        if self.is_blocked(from, to) {
            self.inner.blocked_drops.inc();
            return false;
        }
        !self.rolls_loss_drop()
    }

    /// Rolls only the injected-loss component (no block check), counting
    /// the drop when it hits. Used by transports that handle blocked links
    /// separately (the TCP transport parks blocked frames instead of
    /// dropping them).
    pub fn rolls_loss_drop(&self) -> bool {
        let loss = self.loss();
        if loss > 0.0 && self.roll() < loss {
            self.inner.injected_drops.inc();
            return true;
        }
        false
    }

    /// One uniform sample in `[0, 1)` from the panel's atomic SplitMix64
    /// stream.
    fn roll(&self) -> f64 {
        let state = self
            .inner
            .rng
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Frames dropped so far because their link was blocked.
    pub fn blocked_drops(&self) -> u64 {
        self.inner.blocked_drops.get()
    }

    /// Frames dropped so far by injected loss.
    pub fn injected_drops(&self) -> u64 {
        self.inner.injected_drops.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_blocks_are_independent() {
        let p = FaultPanel::detached(3);
        p.block(0, 1);
        assert!(p.is_blocked(0, 1));
        assert!(!p.is_blocked(1, 0));
        p.unblock(0, 1);
        assert!(!p.is_blocked(0, 1));
    }

    #[test]
    fn partition_cuts_cross_group_links_both_ways() {
        let p = FaultPanel::detached(5);
        p.partition(&[&[0, 1], &[2, 3]]);
        assert!(p.is_blocked(0, 2));
        assert!(p.is_blocked(3, 1));
        assert!(!p.is_blocked(0, 1));
        assert!(!p.is_blocked(2, 3));
        // Node 4 is unlisted: connected to everyone.
        assert!(!p.is_blocked(4, 0));
        assert!(!p.is_blocked(2, 4));
        assert_eq!(p.blocked_links(), 8);
    }

    #[test]
    fn partition_replaces_previous_blocks() {
        let p = FaultPanel::detached(4);
        p.block(0, 3);
        p.partition(&[&[0], &[1]]);
        assert!(!p.is_blocked(0, 3), "stale block survived partition()");
        assert!(p.is_blocked(0, 1));
    }

    #[test]
    fn heal_clears_blocks_and_loss() {
        let p = FaultPanel::detached(3);
        p.block_pair(0, 2);
        p.set_loss(0.5);
        assert!(!p.is_quiet());
        p.heal();
        assert!(p.is_quiet());
        assert!(p.admits(0, 2));
    }

    #[test]
    fn admits_counts_blocked_drops() {
        let p = FaultPanel::detached(2);
        p.block(0, 1);
        assert!(!p.admits(0, 1));
        assert!(p.admits(1, 0));
        assert_eq!(p.blocked_drops(), 1);
    }

    #[test]
    fn injected_loss_drops_roughly_that_fraction() {
        let p = FaultPanel::detached(2);
        p.set_loss(0.5);
        let passed = (0..2000).filter(|_| p.admits(0, 1)).count();
        assert!(
            (700..=1300).contains(&passed),
            "50% loss passed {passed}/2000"
        );
        assert_eq!(p.injected_drops() + passed as u64, 2000);
    }

    #[test]
    fn wakers_fire_on_every_transition() {
        use std::sync::atomic::AtomicUsize;
        let p = FaultPanel::detached(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        p.add_waker(Box::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        p.block(0, 1);
        p.unblock(0, 1);
        p.partition(&[&[0], &[1]]);
        p.heal();
        p.set_loss(0.1);
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn out_of_range_is_a_noop_and_reads_unblocked() {
        let p = FaultPanel::detached(2);
        p.block(0, 7); // no panic
        p.partition(&[&[0, 9], &[1]]);
        assert!(!p.is_blocked(0, 7), "foreign links are never blocked");
        assert!(p.is_blocked(0, 1)); // in-range part of the partition holds
        assert!(p.admits(5, 0));
    }
}
