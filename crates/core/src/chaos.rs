//! Seeded chaos soaking for the live runtime: randomized fault schedules
//! against a real cluster with an online mutual-exclusion checker.
//!
//! The simulator and the model checker already exercise the paper's §6
//! recovery machinery under scripted and exhaustively-branched faults; this
//! module closes the loop on the *production face* — real threads, real
//! timers, real (or channel) transports — by driving a [`crate::Cluster`]
//! through crash/recover, partition/heal, and loss-burst schedules derived
//! deterministically from a seed, while a [`SafetyChecker`] watches every
//! critical-section entry and exit.
//!
//! A failed soak is replayable: [`SoakReport`] carries the seed and the
//! textual op log, and re-running [`soak`] with the same [`SoakOptions`]
//! regenerates the identical schedule (wall-clock interleaving of the
//! cluster itself naturally varies — the *faults* are what replay).
//!
//! # Epoch-tagged checking
//!
//! A naive "at most one node in CS" assertion produces false alarms the
//! moment faults are injected: a node crashed *while inside* its critical
//! section cannot release, and the paper's recovery (crash-stop model)
//! legitimately regenerates the token, so the new holder briefly overlaps
//! the dead one. Likewise, a live token holder stranded behind a partition
//! is outside the algorithm's failure model (it looks crashed to the
//! majority but isn't). The checker therefore tags every node with an
//! epoch and a `suspect` flag: [`SafetyChecker::crash`] and
//! [`SafetyChecker::isolate`] bump the epoch and mark any in-flight CS of
//! that node *unclean*. Violations are only declared between two **clean**
//! concurrent holders — entries whose nodes were alive, unsuspected, and
//! in their current epoch for the whole critical section. Those are
//! exactly the overlaps the paper's model promises cannot happen.
//!
//! Injected message loss is bracketed the same way: the §6 enquiry treats
//! a silent node as failed after two timeout rounds, so loss heavy enough
//! to silence both rounds can regenerate a token whose live holder simply
//! could not be heard — again outside the crash-stop model. The driver
//! therefore marks *all* nodes suspect while a loss burst is active (and
//! for a grace period after), while crash and partition eras stay fully
//! checked: with reliable channels the enquiry provably finds a live
//! holder before regenerating.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tokq_obs::Level;
use tokq_protocol::arbiter::{ArbiterConfig, RecoveryConfig};
use tokq_protocol::types::TimeDelta;

use crate::cluster::Cluster;
use crate::metrics::ClusterMetrics;
use crate::service::LockError;
use crate::transport::NetOptions;

// ---------------------------------------------------------------------------
// Deterministic randomness
// ---------------------------------------------------------------------------

/// Small deterministic PRNG (SplitMix64) for schedule generation: the same
/// seed always yields the same chaos schedule.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

// ---------------------------------------------------------------------------
// Online safety checker
// ---------------------------------------------------------------------------

struct NodeEpoch {
    alive: bool,
    suspect: bool,
    /// Bumped on every crash and isolation; a CS entered in an older epoch
    /// no longer counts as clean.
    epoch: u64,
}

struct Holder {
    ticket: u64,
    node: usize,
    epoch: u64,
    clean: bool,
}

struct CheckerState {
    nodes: Vec<NodeEpoch>,
    in_cs: Vec<Holder>,
    next_ticket: u64,
    entries_started: u64,
    clean_entries: u64,
    violations: Vec<String>,
}

/// Proof of a recorded CS entry; hand it back to [`SafetyChecker::exit`].
#[derive(Debug)]
pub struct CsTicket {
    ticket: u64,
    node: usize,
}

/// Online mutual-exclusion checker for a live cluster: the runtime
/// equivalent of the simulator's single-`cs_holder` invariant, epoch-tagged
/// so injected faults don't masquerade as violations (see module docs).
///
/// Clone freely; clones share state. Workers call [`SafetyChecker::enter`]
/// after acquiring the distributed lock and [`SafetyChecker::exit`]
/// *before* releasing it; the fault driver mirrors every injected fault
/// with [`SafetyChecker::crash`] / [`SafetyChecker::isolate`] *before*
/// applying it to the cluster (conservative ordering: a fault is accounted
/// for before it can have any effect).
#[derive(Clone)]
pub struct SafetyChecker {
    state: Arc<Mutex<CheckerState>>,
}

impl std::fmt::Debug for SafetyChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SafetyChecker")
            .field("nodes", &st.nodes.len())
            .field("in_cs", &st.in_cs.len())
            .field("clean_entries", &st.clean_entries)
            .field("violations", &st.violations.len())
            .finish()
    }
}

impl SafetyChecker {
    /// A checker for an `n`-node cluster, all nodes alive and trusted.
    pub fn new(n: usize) -> Self {
        SafetyChecker {
            state: Arc::new(Mutex::new(CheckerState {
                nodes: (0..n)
                    .map(|_| NodeEpoch {
                        alive: true,
                        suspect: false,
                        epoch: 0,
                    })
                    .collect(),
                in_cs: Vec::new(),
                next_ticket: 0,
                entries_started: 0,
                clean_entries: 0,
                violations: Vec::new(),
            })),
        }
    }

    /// Records `node` entering its critical section. Call with the
    /// distributed lock held.
    pub fn enter(&self, node: usize) -> CsTicket {
        let mut st = self.state.lock();
        st.entries_started += 1;
        st.next_ticket += 1;
        let ticket = st.next_ticket;
        let (clean, epoch) = match st.nodes.get(node) {
            Some(ne) => (ne.alive && !ne.suspect, ne.epoch),
            None => (false, 0),
        };
        if clean {
            let overlaps: Vec<String> = st
                .in_cs
                .iter()
                .filter(|h| h.clean)
                .map(|h| format!("node {} (ticket {})", h.node, h.ticket))
                .collect();
            if !overlaps.is_empty() {
                st.violations.push(format!(
                    "mutual exclusion violated: node {node} (ticket {ticket}, epoch {epoch}) \
                     entered CS while held by {}",
                    overlaps.join(", ")
                ));
            }
        }
        st.in_cs.push(Holder {
            ticket,
            node,
            epoch,
            clean,
        });
        CsTicket { ticket, node }
    }

    /// Records the end of the critical section `ticket` was issued for.
    /// Call *before* releasing the distributed lock.
    pub fn exit(&self, ticket: CsTicket) {
        let mut st = self.state.lock();
        if let Some(pos) = st.in_cs.iter().position(|h| h.ticket == ticket.ticket) {
            let holder = st.in_cs.swap_remove(pos);
            debug_assert_eq!(holder.node, ticket.node, "ticket/holder mismatch");
            let still_current = st
                .nodes
                .get(holder.node)
                .is_some_and(|ne| ne.epoch == holder.epoch);
            if holder.clean && still_current {
                st.clean_entries += 1;
            }
        }
    }

    /// Marks `node` crashed: its epoch advances and any critical section it
    /// currently occupies stops counting as clean. Call *before*
    /// [`Cluster::crash`].
    pub fn crash(&self, node: usize) {
        let mut st = self.state.lock();
        if let Some(ne) = st.nodes.get_mut(node) {
            ne.alive = false;
            ne.epoch += 1;
        }
        for h in st.in_cs.iter_mut().filter(|h| h.node == node) {
            h.clean = false;
        }
    }

    /// Marks `node` recovered. Call after [`Cluster::recover`].
    pub fn recover(&self, node: usize) {
        if let Some(ne) = self.state.lock().nodes.get_mut(node) {
            ne.alive = true;
        }
    }

    /// Marks `node` suspect — e.g. on the minority side of a partition,
    /// where a live token holder is outside the paper's crash-stop failure
    /// model. Its entries stop counting until [`SafetyChecker::deisolate`].
    /// Call *before* installing the partition.
    pub fn isolate(&self, node: usize) {
        let mut st = self.state.lock();
        if let Some(ne) = st.nodes.get_mut(node) {
            ne.suspect = true;
            ne.epoch += 1;
        }
        for h in st.in_cs.iter_mut().filter(|h| h.node == node) {
            h.clean = false;
        }
    }

    /// Clears the suspect mark, typically a grace period after a heal (the
    /// recovery protocol needs time to invalidate stale tokens).
    pub fn deisolate(&self, node: usize) {
        if let Some(ne) = self.state.lock().nodes.get_mut(node) {
            ne.suspect = false;
        }
    }

    /// Clean critical sections completed so far: entered and exited by an
    /// alive, unsuspected node within one epoch.
    pub fn clean_entries(&self) -> u64 {
        self.state.lock().clean_entries
    }

    /// Total CS entries observed, clean or not.
    pub fn entries_started(&self) -> u64 {
        self.state.lock().entries_started
    }

    /// Descriptions of every mutual-exclusion violation observed.
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().violations.clone()
    }

    /// True while no violation has been observed.
    pub fn is_safe(&self) -> bool {
        self.state.lock().violations.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

/// One step of a chaos schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// Crash a node ([`Cluster::crash`]).
    Crash(usize),
    /// Recover a crashed node ([`Cluster::recover`]).
    Recover(usize),
    /// Partition the cluster into groups ([`Cluster::partition`]); the
    /// first group is always the (weak) majority.
    Partition(Vec<Vec<usize>>),
    /// Heal all partitions and injected loss ([`Cluster::heal`]).
    Heal,
    /// Inject extra message loss, probability in per-mille (deterministic
    /// integer so schedules are `Eq`/hashable).
    LossBurst(u32),
    /// Clear injected loss.
    ClearLoss,
    /// Let the cluster run undisturbed for one gap.
    Pause,
}

impl std::fmt::Display for ChaosOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosOp::Crash(n) => write!(f, "crash({n})"),
            ChaosOp::Recover(n) => write!(f, "recover({n})"),
            ChaosOp::Partition(groups) => write!(f, "partition({groups:?})"),
            ChaosOp::Heal => write!(f, "heal"),
            ChaosOp::LossBurst(pm) => write!(f, "loss({}%)", *pm as f64 / 10.0),
            ChaosOp::ClearLoss => write!(f, "clear_loss"),
            ChaosOp::Pause => write!(f, "pause"),
        }
    }
}

/// Generates a sane `ops`-step schedule for an `n`-node cluster from
/// `seed`: at most `⌊(n-1)/2⌋` nodes crashed at once, no partition atop an
/// existing one, heals biased so faults don't pile up forever, and every
/// fault outstanding at the end explicitly healed/recovered so the
/// schedule always hands back a whole cluster.
pub fn schedule(seed: u64, n: usize, ops: usize) -> Vec<ChaosOp> {
    assert!(n >= 2, "chaos needs at least two nodes");
    let mut rng = ChaosRng::new(seed);
    let max_down = (n - 1) / 2;
    let mut crashed: BTreeSet<usize> = BTreeSet::new();
    let mut partitioned = false;
    let mut lossy = false;
    let mut plan = Vec::with_capacity(ops + max_down + 2);
    for _ in 0..ops {
        // Heal-biased when a partition is up: sustained partitions mostly
        // stall progress, and the interesting transitions are the edges.
        if partitioned && rng.chance(0.45) {
            plan.push(ChaosOp::Heal);
            partitioned = false;
            lossy = false; // heal clears injected loss too
            continue;
        }
        match rng.below(10) {
            0 | 1 if crashed.len() < max_down => {
                // Crash a random live node.
                let live: Vec<usize> = (0..n).filter(|i| !crashed.contains(i)).collect();
                let victim = live[rng.below(live.len())];
                crashed.insert(victim);
                plan.push(ChaosOp::Crash(victim));
            }
            2 | 3 if !crashed.is_empty() => {
                let back = *crashed
                    .iter()
                    .nth(rng.below(crashed.len()))
                    .expect("nonempty");
                crashed.remove(&back);
                plan.push(ChaosOp::Recover(back));
            }
            4 | 5 if !partitioned => {
                // Split off a random minority (1 ..= (n-1)/2 nodes).
                let minority_size = 1 + rng.below(max_down.max(1));
                let mut pool: Vec<usize> = (0..n).collect();
                let mut minority = Vec::with_capacity(minority_size);
                for _ in 0..minority_size {
                    minority.push(pool.swap_remove(rng.below(pool.len())));
                }
                minority.sort_unstable();
                pool.sort_unstable();
                plan.push(ChaosOp::Partition(vec![pool, minority]));
                partitioned = true;
            }
            6 if !lossy => {
                // 5% – 25% extra loss: enough to exercise retransmission
                // paths without starving recovery of its own messages.
                plan.push(ChaosOp::LossBurst(50 + rng.below(200) as u32));
                lossy = true;
            }
            7 if lossy => {
                plan.push(ChaosOp::ClearLoss);
                lossy = false;
            }
            _ => plan.push(ChaosOp::Pause),
        }
    }
    // Close out: the driver's final drain phase needs a whole cluster.
    if partitioned || lossy {
        plan.push(ChaosOp::Heal);
    }
    for back in crashed {
        plan.push(ChaosOp::Recover(back));
    }
    plan
}

// ---------------------------------------------------------------------------
// Soak driver
// ---------------------------------------------------------------------------

/// Parameters of one chaos soak run.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Cluster size.
    pub nodes: usize,
    /// Schedule seed; a failed run prints it and re-running with the same
    /// options replays the identical fault schedule.
    pub seed: u64,
    /// Number of schedule steps.
    pub ops: usize,
    /// Wall-clock gap between schedule steps.
    pub op_gap: Duration,
    /// Settle time after a heal before previously-partitioned nodes count
    /// as clean again (the recovery protocol needs it to invalidate stale
    /// state).
    pub heal_grace: Duration,
    /// Clean CS entries to reach before the run passes.
    pub target_entries: u64,
    /// Hard wall-clock bound on the whole run.
    pub time_limit: Duration,
    /// Per-attempt lock timeout used by the worker threads.
    pub lock_timeout: Duration,
    /// How long each worker holds the critical section.
    pub hold: Duration,
    /// Number of shards the cluster runs (1 = classic single lock).
    pub shards: u16,
    /// Named resources the workers contend on. Empty means the legacy
    /// single-lock path (every worker locks through
    /// [`Cluster::handle`], i.e. shard 0). Non-empty spawns one worker
    /// per node × resource, each checked by its shard's own
    /// [`SafetyChecker`].
    pub resources: Vec<String>,
    /// Run over loopback TCP instead of in-process channels.
    pub tcp: bool,
    /// Channel-transport options (ignored in TCP mode).
    pub net: NetOptions,
    /// Protocol configuration; must enable recovery for crash schedules.
    pub config: ArbiterConfig,
    /// Flight-recorder capacity and level, dumped to stderr on violation.
    pub recorder: Option<(usize, Level)>,
}

impl SoakOptions {
    /// Chaos-tuned defaults: a fault-tolerant 5-node cluster with
    /// millisecond phases and sub-second recovery timeouts, sized so a
    /// full soak stays test-suite friendly.
    pub fn quick(nodes: usize, seed: u64) -> Self {
        let config = ArbiterConfig {
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
        };
        SoakOptions {
            nodes,
            seed,
            ops: 40,
            op_gap: Duration::from_millis(30),
            heal_grace: Duration::from_millis(300),
            target_entries: 500,
            time_limit: Duration::from_secs(60),
            lock_timeout: Duration::from_millis(250),
            hold: Duration::from_micros(100),
            shards: 1,
            resources: Vec::new(),
            tcp: false,
            net: NetOptions::instant(),
            config,
            recorder: Some((16_384, Level::Info)),
        }
    }

    /// Chaos-tuned defaults for a multi-resource soak over `shards`
    /// shards: the [`SoakOptions::quick`] schedule shape, with the §6
    /// recovery timeouts and the grace windows scaled by the shard count.
    ///
    /// The scaling is not optional tuning: timeout-based recovery
    /// presumes a timing bound on how slow a live token holder can look,
    /// and a K-shard soak runs K× the worker threads and K independent
    /// timer wheels on the same cores. Keeping the single-shard
    /// calibration would let scheduling delay alone push a live holder
    /// past `token_wait`, regenerating a token that was never lost —
    /// a violation of the synchrony assumption, not of the algorithm.
    pub fn sharded(nodes: usize, seed: u64, shards: u16, resources: Vec<String>) -> Self {
        let mut opts = Self::quick(nodes, seed);
        opts.shards = shards.max(1);
        opts.resources = resources;
        let k = u64::from(opts.shards);
        if let Some(rec) = opts.config.recovery.as_mut() {
            rec.token_wait_base = TimeDelta::from_millis(100 * k);
            rec.token_wait_per_position = TimeDelta::from_millis(25 * k);
            rec.enquiry_timeout = TimeDelta::from_millis(50 * k);
            rec.handover_watch = TimeDelta::from_millis(200 * k);
            rec.probe_timeout = TimeDelta::from_millis(50 * k);
        }
        let k32 = opts.shards as u32;
        opts.heal_grace = Duration::from_millis(300) * k32;
        opts.lock_timeout = Duration::from_millis(250) * k32;
        opts.time_limit = Duration::from_secs(60) + Duration::from_secs(15) * (k32 - 1);
        opts
    }
}

/// Outcome of a [`soak`] run.
#[derive(Debug)]
pub struct SoakReport {
    /// The schedule seed (replay key).
    pub seed: u64,
    /// Clean CS entries completed, summed over all shards.
    pub entries: u64,
    /// All CS entries observed (clean + fault-era), summed over shards.
    pub entries_started: u64,
    /// Clean CS entries per shard (index = shard id).
    pub entries_by_shard: Vec<u64>,
    /// Mutual-exclusion violations, empty on a safe run.
    pub violations: Vec<String>,
    /// The applied schedule, rendered (replay/debugging aid).
    pub ops_applied: Vec<String>,
    /// Crashes injected.
    pub crashes: u64,
    /// Partitions installed.
    pub partitions: u64,
    /// Loss bursts injected.
    pub loss_bursts: u64,
    /// True when the run hit [`SoakOptions::time_limit`] before reaching
    /// [`SoakOptions::target_entries`].
    pub timed_out: bool,
    /// TCP outbox frames still pending when the run ended, measured after
    /// a post-heal drain window. A healed mesh must flush its parked
    /// frames, so anything non-zero here means a node could not empty a
    /// link's queue (always 0 on the channel transport).
    pub final_outbox_depth: i64,
    /// The cluster's metrics, kept alive past shutdown.
    pub metrics: Arc<ClusterMetrics>,
}

impl SoakReport {
    /// Safe and reached its entry target.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && !self.timed_out
    }

    /// One-line human summary (includes the seed for replay).
    pub fn summary(&self) -> String {
        format!(
            "seed={} entries={} (started {}) crashes={} partitions={} loss_bursts={} \
             violations={} timed_out={}",
            self.seed,
            self.entries,
            self.entries_started,
            self.crashes,
            self.partitions,
            self.loss_bursts,
            self.violations.len(),
            self.timed_out,
        )
    }
}

/// Runs one seeded chaos soak: builds the cluster, spawns lock workers
/// (one per node on the legacy path, one per node × resource when
/// [`SoakOptions::resources`] names resources), applies the schedule
/// derived from [`SoakOptions::seed`], then heals everything and drains
/// until the entry target or the time limit. Every shard has its own
/// [`SafetyChecker`]; faults are mirrored into all of them. On violation
/// the flight recorder (if attached) is dumped to stderr.
pub fn soak(opts: &SoakOptions) -> SoakReport {
    let mut builder = Cluster::builder(opts.nodes)
        .config(opts.config.clone())
        .shards(opts.shards.max(1));
    if opts.tcp {
        builder = builder.tcp();
    } else {
        builder = builder.net(opts.net);
    }
    if let Some((cap, level)) = opts.recorder {
        builder = builder.flight_recorder(cap, level);
    }
    let cluster = builder.build();
    let metrics = cluster.metrics_handle();
    let checkers: Vec<SafetyChecker> = (0..cluster.shards())
        .map(|_| SafetyChecker::new(opts.nodes))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + opts.time_limit;

    let spawn_worker = |name: String,
                        handle: crate::cluster::ResourceHandle,
                        checker: SafetyChecker,
                        node: usize|
     -> std::thread::JoinHandle<()> {
        let stop = Arc::clone(&stop);
        let (lock_timeout, hold) = (opts.lock_timeout, opts.hold);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match handle.try_lock_for(lock_timeout) {
                        Ok(guard) => {
                            let ticket = checker.enter(node);
                            std::thread::sleep(hold);
                            checker.exit(ticket);
                            drop(guard);
                        }
                        Err(LockError::Timeout) => {}
                        // Crashed node or shutdown race: errors return
                        // instantly, so back off instead of hammering the
                        // dead node's inbox — its waiters used to sit
                        // quietly in the queue, and a tight NodeDown retry
                        // loop would add churn the old blocking path never
                        // had.
                        Err(_) => std::thread::sleep(Duration::from_millis(50)),
                    }
                }
            })
            .expect("spawn chaos worker")
    };

    let mut workers = Vec::new();
    if opts.resources.is_empty() {
        for i in 0..opts.nodes {
            let handle = cluster
                .resource_on(i, "__mutex")
                .expect("worker node in range");
            let checker = checkers[handle.shard().index()].clone();
            workers.push(spawn_worker(
                format!("chaos-worker-{i}"),
                handle,
                checker,
                i,
            ));
        }
    } else {
        for i in 0..opts.nodes {
            for (r, name) in opts.resources.iter().enumerate() {
                let handle = cluster
                    .resource_on(i, name.as_str())
                    .expect("worker node in range");
                let checker = checkers[handle.shard().index() % checkers.len()].clone();
                workers.push(spawn_worker(
                    format!("chaos-worker-{i}-r{r}"),
                    handle,
                    checker,
                    i,
                ));
            }
        }
    }

    let plan = schedule(opts.seed, opts.nodes, opts.ops);
    let mut ops_applied = Vec::with_capacity(plan.len());
    let (mut crashes, mut partitions, mut loss_bursts) = (0u64, 0u64, 0u64);
    // Who is suspect, and why: partitioned-minority membership persists
    // across a ClearLoss, loss bursts suspect everyone (see module docs).
    let mut partition_suspects: BTreeSet<usize> = BTreeSet::new();
    let mut lossy = false;
    for op in &plan {
        ops_applied.push(op.to_string());
        match op {
            ChaosOp::Crash(x) => {
                crashes += 1;
                // Checkers first: the crash must be accounted for before
                // it can have any effect (it hits every shard at once).
                for c in &checkers {
                    c.crash(*x);
                }
                cluster.crash(*x).expect("crash in-range node");
            }
            ChaosOp::Recover(x) => {
                cluster.recover(*x).expect("recover in-range node");
                for c in &checkers {
                    c.recover(*x);
                }
            }
            ChaosOp::Partition(groups) => {
                partitions += 1;
                // Every non-majority group is suspect: a token holder
                // stranded there is outside the crash-stop model.
                for group in &groups[1..] {
                    for &node in group {
                        partition_suspects.insert(node);
                        for c in &checkers {
                            c.isolate(node);
                        }
                    }
                }
                let refs: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
                cluster.partition(&refs).expect("partition in-range groups");
            }
            ChaosOp::Heal => {
                cluster.heal(); // clears partitions and injected loss
                                // Give recovery time to invalidate stale tokens before
                                // entries count again.
                std::thread::sleep(opts.heal_grace);
                partition_suspects.clear();
                lossy = false;
                for node in 0..opts.nodes {
                    for c in &checkers {
                        c.deisolate(node);
                    }
                }
            }
            ChaosOp::LossBurst(pm) => {
                loss_bursts += 1;
                if !lossy {
                    lossy = true;
                    for node in 0..opts.nodes {
                        for c in &checkers {
                            c.isolate(node);
                        }
                    }
                }
                cluster.fault_panel().set_loss(f64::from(*pm) / 1000.0);
            }
            ChaosOp::ClearLoss => {
                cluster.fault_panel().set_loss(0.0);
                if lossy {
                    std::thread::sleep(opts.heal_grace);
                    lossy = false;
                    for node in 0..opts.nodes {
                        if !partition_suspects.contains(&node) {
                            for c in &checkers {
                                c.deisolate(node);
                            }
                        }
                    }
                }
            }
            ChaosOp::Pause => {}
        }
        std::thread::sleep(opts.op_gap);
    }

    // Drain: everything is healed (the schedule guarantees it); run until
    // the entry target or the deadline.
    let total_entries = |cs: &[SafetyChecker]| cs.iter().map(SafetyChecker::clean_entries).sum();
    let mut timed_out = false;
    while total_entries(&checkers) < opts.target_entries {
        if Instant::now() >= deadline {
            timed_out = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        let _ = w.join();
    }

    // With the mesh healed and the workers stopped, the TCP send pipeline
    // must flush every parked frame; give the reactors a short window
    // and record whatever depth remains.
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while metrics.outbox_depth() > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let final_outbox_depth = metrics.outbox_depth();

    let violations: Vec<String> = checkers
        .iter()
        .enumerate()
        .flat_map(|(s, c)| {
            c.violations()
                .into_iter()
                .map(move |v| format!("[shard {s}] {v}"))
        })
        .collect();
    if !violations.is_empty() || timed_out {
        if violations.is_empty() {
            eprintln!("chaos soak STALLED (seed {}):", opts.seed);
        } else {
            eprintln!("chaos soak UNSAFE (seed {}):", opts.seed);
            for v in &violations {
                eprintln!("  {v}");
            }
        }
        if let Some(recorder) = cluster.flight_recorder() {
            eprintln!("--- flight recorder ---\n{}", recorder.dump_jsonl());
        }
    }
    cluster.shutdown();

    SoakReport {
        seed: opts.seed,
        entries: total_entries(&checkers),
        entries_started: checkers.iter().map(SafetyChecker::entries_started).sum(),
        entries_by_shard: checkers.iter().map(SafetyChecker::clean_entries).collect(),
        violations,
        ops_applied,
        crashes,
        partitions,
        loss_bursts,
        timed_out,
        final_outbox_depth,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_flags_clean_overlap() {
        let c = SafetyChecker::new(3);
        let t0 = c.enter(0);
        let t1 = c.enter(1); // overlap while both clean
        assert!(!c.is_safe());
        c.exit(t1);
        c.exit(t0);
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn crashed_holder_does_not_count_or_conflict() {
        let c = SafetyChecker::new(3);
        let t0 = c.enter(0);
        c.crash(0); // dies inside its CS
        let t1 = c.enter(1); // recovery-era grant: legitimate
        assert!(c.is_safe());
        c.exit(t1);
        c.exit(t0); // stale exit after crash: uncounted
        assert_eq!(c.clean_entries(), 1);
        assert_eq!(c.entries_started(), 2);
    }

    #[test]
    fn suspect_nodes_do_not_conflict_until_deisolated() {
        let c = SafetyChecker::new(3);
        c.isolate(2);
        let t2 = c.enter(2); // stranded minority holder
        let t0 = c.enter(0);
        assert!(c.is_safe(), "suspect overlap must not alarm");
        c.exit(t0);
        c.exit(t2);
        assert_eq!(c.clean_entries(), 1, "only the clean entry counts");
        c.deisolate(2);
        let t2b = c.enter(2);
        c.exit(t2b);
        assert_eq!(c.clean_entries(), 2);
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let a = schedule(42, 5, 60);
        let b = schedule(42, 5, 60);
        assert_eq!(a, b);
        assert_ne!(a, schedule(43, 5, 60), "different seeds should differ");
        // Never more than (n-1)/2 nodes down at once, and whole at the end.
        let mut down = 0usize;
        let mut max_down = 0usize;
        let mut partitioned = false;
        for op in &a {
            match op {
                ChaosOp::Crash(_) => {
                    down += 1;
                    max_down = max_down.max(down);
                }
                ChaosOp::Recover(_) => down -= 1,
                ChaosOp::Partition(groups) => {
                    partitioned = true;
                    assert!(
                        groups[0].len() > groups[1].len(),
                        "first group must be the majority: {groups:?}"
                    );
                }
                ChaosOp::Heal => partitioned = false,
                _ => {}
            }
        }
        assert!(max_down <= 2);
        assert_eq!(down, 0, "schedule must recover everyone");
        assert!(!partitioned, "schedule must heal at the end");
    }

    #[test]
    fn schedules_with_many_seeds_stay_sane() {
        for seed in 0..50 {
            let plan = schedule(seed, 5, 40);
            let mut down: BTreeSet<usize> = BTreeSet::new();
            for op in &plan {
                match op {
                    ChaosOp::Crash(x) => {
                        assert!(down.insert(*x), "double crash of {x} (seed {seed})");
                        assert!(down.len() <= 2, "too many down (seed {seed})");
                    }
                    ChaosOp::Recover(x) => {
                        assert!(down.remove(x), "recover of live {x} (seed {seed})");
                    }
                    ChaosOp::LossBurst(pm) => assert!(*pm <= 250),
                    _ => {}
                }
            }
            assert!(down.is_empty(), "seed {seed} left nodes down");
        }
    }
}
