//! The user-facing runtime: an in-process cluster of arbiter nodes with a
//! sharded, multi-resource distributed-lock API.
//!
//! A [`Cluster`] runs `K` independent protocol instances (shards) on every
//! node, all multiplexed over one transport mesh. Applications lock named
//! resources — `cluster.resource("accounts/7").lock()?` — and the stable
//! [`ResourceId`] hash decides which shard serializes each name. The
//! single-lock API ([`Cluster::handle`]) remains as a thin shim over
//! shard 0.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use tokq_obs::sink::JsonlWriter;
use tokq_obs::{FlightRecorder, Level, Obs, Source};
use tokq_protocol::api::ProtocolFactory;
use tokq_protocol::arbiter::ArbiterConfig;
use tokq_protocol::types::NodeId;
use tokq_sys::Poller;

use crate::fault::FaultPanel;
use crate::inbox::{inbox, InboxTx};
use crate::metrics::ClusterMetrics;
use crate::node::{reactor_count, Node, NodeEvent, NodeNet, Reactor};
use crate::service::{FaultError, LockError, ResourceId, ShardId};
use crate::transport::{ChannelTransport, NetOptions};

/// How long [`ResourceHandle::try_lock`] waits for a grant the node
/// cannot make on the spot.
///
/// A call the node can grant at once — its arbiter holds the idle token
/// and has no collection window to wait out — is granted inside the call
/// and never waits. Any other grant takes at least a collection window or
/// a message round trip to the arbiter, so `try_lock` allows this short
/// grace, enough for a round trip on a loaded host, before reporting
/// [`LockError::Timeout`].
const TRY_LOCK_GRACE: Duration = Duration::from_millis(5);

/// Builder for a [`Cluster`].
///
/// # Examples
///
/// ```
/// use tokq_core::Cluster;
///
/// let cluster = Cluster::builder(3).shards(4).build();
/// {
///     let _guard = cluster.resource("accounts/7").lock().unwrap();
///     // critical section for accounts/7 (and everything on its shard)
/// }
/// cluster.shutdown();
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    n: usize,
    shards: u16,
    config: ArbiterConfig,
    net: NetOptions,
    tcp: bool,
    obs: Option<Obs>,
    recorder: Option<(usize, Level)>,
}

impl ClusterBuilder {
    /// Sets the protocol configuration (variant, phase durations, …),
    /// applied identically to every shard.
    #[must_use]
    pub fn config(mut self, config: ArbiterConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the number of independent protocol instances (shards) the
    /// cluster runs. Defaults to 1. Resources hash onto shards; more
    /// shards means more critical sections can proceed concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn shards(mut self, shards: u16) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        self.shards = shards;
        self
    }

    /// Sets the transport behaviour (delay, jitter, loss).
    #[must_use]
    pub fn net(mut self, net: NetOptions) -> Self {
        self.net = net;
        self
    }

    /// Moves inter-node traffic onto real loopback TCP sockets (framed by
    /// [`crate::tcp`]) instead of in-process channels. `net` delay/loss
    /// options do not apply in this mode — the loopback stack is the
    /// network. All shards share the one TCP mesh; frames carry their
    /// shard id in the wire header.
    #[must_use]
    pub fn tcp(mut self) -> Self {
        self.tcp = true;
        self
    }

    /// Routes all tracing and metrics through an existing [`Obs`] handle
    /// (defaults to [`Obs::from_env`] honouring `TOKQ_TRACE`).
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a bounded flight recorder that keeps the last `capacity`
    /// protocol events at `level` or below, independent of the streaming
    /// trace filter. Dump it post-mortem via
    /// [`Cluster::obs`]`().flight_recorder()`.
    #[must_use]
    pub fn flight_recorder(mut self, capacity: usize, level: Level) -> Self {
        self.recorder = Some((capacity, level));
        self
    }

    /// Starts the nodes, driven by one reactor thread per CPU (at most one
    /// per node), and returns the running cluster.
    ///
    /// # Panics
    ///
    /// Panics if the node count is zero.
    pub fn build(self) -> Cluster {
        assert!(self.n > 0, "cluster needs at least one node");
        let obs = self.obs.unwrap_or_else(|| {
            // `TOKQ_TRACE` alone must produce visible output: stream JSONL
            // to stderr whenever the env filter enables anything.
            let obs = Obs::from_env(Source::Runtime);
            if obs.filter().max_level() > Level::Off {
                obs.add_sink(JsonlWriter::stderr());
            }
            obs
        });
        if let Some((capacity, level)) = self.recorder {
            obs.attach_flight_recorder(capacity, level);
        }
        let metrics = ClusterMetrics::with_obs(obs);
        // One fault surface shared by whichever transport carries frames:
        // `Cluster::partition`/`heal` act through it at runtime. Faults are
        // per-link, so they hit every shard crossing that link alike.
        let fault_panel = FaultPanel::new(self.n, metrics.obs());
        let mut node_txs = Vec::with_capacity(self.n);
        let mut node_rxs = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            let (tx, rx) = inbox(metrics.bell_ring_counter()).expect("create node inbox eventfd");
            node_txs.push(tx);
            node_rxs.push(rx);
        }

        let mut nets = Vec::with_capacity(self.n);
        if self.tcp {
            // One loopback listener per node, ephemeral ports. Each node
            // accepts and reads its own connections and owns one outbound
            // connection to each peer.
            let listeners: Vec<TcpListener> = (0..self.n)
                .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
                .collect();
            let peers: Vec<_> = listeners
                .iter()
                .map(|l| l.local_addr().expect("bound listener address"))
                .collect();
            for listener in listeners {
                nets.push(NodeNet::Tcp {
                    listener,
                    peers: peers.clone(),
                });
            }
            // Frames waiting behind a blocked link go out when a node
            // hears of the heal.
            let inboxes = node_txs.clone();
            fault_panel.add_waker(Box::new(move || {
                for tx in &inboxes {
                    let _ = tx.send(NodeEvent::LinksChanged);
                }
            }));
        } else {
            let transport = Arc::new(ChannelTransport::new(
                node_txs.clone(),
                self.net,
                metrics.obs(),
                fault_panel.clone(),
            ));
            nets.resize_with(self.n, || NodeNet::Channel(Arc::clone(&transport)));
        }

        // Node i is driven by reactor i mod P, and registers its bell and
        // sockets in that reactor's poller as the reactor's node i / P.
        let p = reactor_count(self.n);
        let pollers: Vec<Arc<Poller>> = (0..p)
            .map(|_| {
                Poller::new()
                    .map(Arc::new)
                    .expect("create the reactor's epoll instance")
            })
            .collect();
        let nodes: Vec<Arc<Node>> = node_rxs
            .into_iter()
            .zip(nets)
            .enumerate()
            .map(|(i, (rx, net))| {
                let id = NodeId::from_index(i);
                let protocols = (0..self.shards)
                    .map(|s| self.config.build_shard(id, self.n, s))
                    .collect();
                let node = Node::new(
                    protocols,
                    rx,
                    net,
                    fault_panel.clone(),
                    Arc::clone(&metrics),
                    Arc::clone(&pollers[i % p]),
                    i / p,
                );
                Arc::new(node.expect("register the node with its reactor's epoll instance"))
            })
            .collect();
        let threads = pollers
            .into_iter()
            .enumerate()
            .map(|(k, poller)| {
                let share = nodes.iter().skip(k).step_by(p).cloned().collect();
                let reactor = Reactor::new(poller, share);
                std::thread::Builder::new()
                    .name(format!("tokq-node-r{k}"))
                    .spawn(move || reactor.run())
                    .expect("spawn reactor thread")
            })
            .collect();
        Cluster {
            n: self.n,
            shards: self.shards,
            nodes,
            node_txs,
            threads,
            tcp: self.tcp,
            fault_panel,
            metrics,
        }
    }
}

/// A running in-process cluster of arbiter-mutex nodes.
///
/// Each node hosts one protocol instance per shard. Lock calls and guard
/// drops step the node on the calling thread; a pool of reactor threads,
/// one per CPU and at most one per node, serves every node's sockets,
/// timers and control events. Messages travel as shard-tagged frames through a (optionally
/// delayed and lossy) channel transport or a loopback TCP mesh. The
/// cluster is the distributed-systems equivalent of a `Mutex` keyed by
/// resource name: obtain [`ResourceHandle`]s via [`Cluster::resource`]
/// and lock through them.
pub struct Cluster {
    n: usize,
    shards: u16,
    /// Every node, by id: handles lock through these.
    nodes: Vec<Arc<Node>>,
    /// Each node's inbox. Kept after shutdown: a node closes its inbox
    /// when it shuts down, so later posts fail with `ShuttingDown`.
    node_txs: Vec<InboxTx>,
    /// The reactor threads.
    threads: Vec<std::thread::JoinHandle<()>>,
    tcp: bool,
    fault_panel: FaultPanel,
    metrics: Arc<ClusterMetrics>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.n)
            .field("shards", &self.shards)
            .field("tcp", &self.tcp)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Starts building an `n`-node cluster with default configuration
    /// (one shard, fault-tolerant protocol, instant channel transport).
    ///
    /// The default protocol configuration,
    /// [`ArbiterConfig::fault_tolerant`], collects requests for 100 ms
    /// (`t_collect`) before every grant, self-grants included: even an
    /// uncontended lock call waits out that window, so each resource
    /// serves about 10 lock calls per second. A lock service turns the
    /// window off with `.with_t_collect(TimeDelta::ZERO)` (see
    /// [`ArbiterConfig::with_t_collect`]) and passes the result to
    /// [`ClusterBuilder::config`]:
    ///
    /// ```
    /// use tokq_core::Cluster;
    /// use tokq_protocol::arbiter::ArbiterConfig;
    /// use tokq_protocol::types::TimeDelta;
    ///
    /// let config = ArbiterConfig::fault_tolerant()
    ///     .with_t_collect(TimeDelta::ZERO)
    ///     .with_t_forward(TimeDelta::from_micros(200));
    /// let cluster = Cluster::builder(3).config(config).build();
    /// drop(cluster.handle(0).unwrap().lock().unwrap());
    /// cluster.shutdown();
    /// ```
    pub fn builder(n: usize) -> ClusterBuilder {
        ClusterBuilder {
            n,
            shards: 1,
            config: ArbiterConfig::fault_tolerant(),
            net: NetOptions::instant(),
            tcp: false,
            obs: None,
            recorder: None,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the cluster has no nodes (never; builder enforces ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards (independent protocol instances).
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// A handle for locking the named resource, bound to the resource's
    /// deterministic home node. The resource's shard is derived from its
    /// name; two calls with the same name always address the same shard.
    pub fn resource(&self, name: impl Into<ResourceId>) -> ResourceHandle {
        let resource = name.into();
        let node = resource.home_node(self.n);
        self.resource_handle(resource, node)
    }

    /// Like [`Cluster::resource`] but locking through an explicit node
    /// instead of the resource's home node.
    ///
    /// # Errors
    ///
    /// [`LockError::NoSuchNode`] if `node` is out of range.
    pub fn resource_on(
        &self,
        node: usize,
        name: impl Into<ResourceId>,
    ) -> Result<ResourceHandle, LockError> {
        if node >= self.n {
            return Err(LockError::NoSuchNode {
                node,
                nodes: self.n,
            });
        }
        Ok(self.resource_handle(name.into(), node))
    }

    fn resource_handle(&self, resource: ResourceId, node: usize) -> ResourceHandle {
        let shard = resource.shard(self.shards);
        ResourceHandle {
            resource,
            shard,
            node: NodeId::from_index(node),
            via: Arc::clone(&self.nodes[node]),
        }
    }

    /// A single-lock handle bound to `node` — the documented
    /// compatibility shim over **shard 0** for clusters used as one big
    /// mutex. Sharded applications should use [`Cluster::resource`].
    ///
    /// # Errors
    ///
    /// [`LockError::NoSuchNode`] if `node` is out of range.
    pub fn handle(&self, node: usize) -> Result<MutexHandle, LockError> {
        if node >= self.n {
            return Err(LockError::NoSuchNode {
                node,
                nodes: self.n,
            });
        }
        Ok(MutexHandle {
            inner: ResourceHandle {
                resource: ResourceId::new("__mutex"),
                shard: ShardId(0),
                node: NodeId::from_index(node),
                via: Arc::clone(&self.nodes[node]),
            },
        })
    }

    /// Crashes `node`: volatile protocol state on every shard is lost and
    /// the node stops reacting until [`Cluster::recover`].
    ///
    /// # Errors
    ///
    /// [`FaultError::NoSuchNode`] for an out-of-range node,
    /// [`FaultError::ShuttingDown`] once the cluster has shut down.
    pub fn crash(&self, node: usize) -> Result<(), FaultError> {
        self.fault_send(node, NodeEvent::Crash)
    }

    /// Recovers a crashed node with fresh state on every shard.
    ///
    /// # Errors
    ///
    /// [`FaultError::NoSuchNode`] for an out-of-range node,
    /// [`FaultError::ShuttingDown`] once the cluster has shut down.
    pub fn recover(&self, node: usize) -> Result<(), FaultError> {
        self.fault_send(node, NodeEvent::Recover)
    }

    fn fault_send(&self, node: usize, ev: NodeEvent) -> Result<(), FaultError> {
        if node >= self.n {
            return Err(FaultError::NoSuchNode {
                node,
                nodes: self.n,
            });
        }
        self.node_txs[node]
            .send(ev)
            .map_err(|_| FaultError::ShuttingDown)
    }

    /// The cluster's shared fault surface: per-link blocks, partitions,
    /// and injected loss, mutable while the cluster runs. Faults act on
    /// links, so they affect every shard crossing the link.
    pub fn fault_panel(&self) -> &FaultPanel {
        &self.fault_panel
    }

    /// Installs a network partition: nodes in different `groups` cannot
    /// exchange frames (see [`FaultPanel::partition`]). On the channel
    /// transport cross-partition frames drop; on TCP they park in retry
    /// queues and drain after [`Cluster::heal`].
    ///
    /// # Errors
    ///
    /// [`FaultError::NoSuchNode`] if any group names an out-of-range
    /// node; no partition is installed in that case.
    pub fn partition(&self, groups: &[&[usize]]) -> Result<(), FaultError> {
        for group in groups {
            for &node in *group {
                if node >= self.n {
                    return Err(FaultError::NoSuchNode {
                        node,
                        nodes: self.n,
                    });
                }
            }
        }
        self.fault_panel.partition(groups);
        Ok(())
    }

    /// Heals all injected faults: every link unblocks and injected loss
    /// clears.
    pub fn heal(&self) {
        self.fault_panel.heal();
    }

    /// Shared metrics (messages, completions, notes, per-shard counts).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The observability handle the cluster traces into: registry access,
    /// sinks, and the flight recorder (if one was attached).
    pub fn obs(&self) -> &Obs {
        self.metrics.obs()
    }

    /// The attached flight recorder, if [`ClusterBuilder::flight_recorder`]
    /// was used (or a recorder was attached to the supplied [`Obs`]).
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.metrics.obs().flight_recorder()
    }

    /// A shared handle to the metrics that outlives the cluster — useful
    /// for reading final counts after [`Cluster::shutdown`].
    pub fn metrics_handle(&self) -> Arc<ClusterMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops every node, its reactor thread and the transport. Called
    /// automatically on drop; explicit calls make shutdown order
    /// deterministic in tests.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for tx in &self.node_txs {
            let _ = tx.send(NodeEvent::Shutdown);
        }
        // Each node shuts down on its Shutdown, closing its inbox and
        // sockets and failing its queued lock calls; a reactor exits once
        // all of its nodes have. The last node to shut down drops the
        // channel transport, joining its network thread if it has one.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// A handle for locking one named resource through one node.
///
/// Clone freely; clones address the same resource through the same node.
#[derive(Debug, Clone)]
pub struct ResourceHandle {
    resource: ResourceId,
    shard: ShardId,
    node: NodeId,
    via: Arc<Node>,
}

impl ResourceHandle {
    /// The resource this handle locks.
    pub fn resource(&self) -> &ResourceId {
        &self.resource
    }

    /// The shard serializing this resource.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The node this handle locks through.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks until the resource's lock is granted, returning an RAII
    /// guard that releases on drop.
    ///
    /// The request runs on the calling thread: when the node can grant
    /// it at once (its arbiter holds the idle token and collects for no
    /// window), the call returns the guard without blocking or waking any
    /// other thread.
    ///
    /// # Errors
    ///
    /// [`LockError::NodeDown`] if the node is crashed,
    /// [`LockError::ShuttingDown`] if the cluster shut down while
    /// waiting.
    pub fn lock(&self) -> Result<LockGuard, LockError> {
        self.request(None)
    }

    /// Attempts the lock without queueing behind a long wait. A grant the
    /// node makes on the spot returns at once; any other gets a short
    /// grace (a few milliseconds, for a collection window or a round
    /// trip to the arbiter) before [`LockError::Timeout`].
    ///
    /// # Errors
    ///
    /// As [`ResourceHandle::try_lock_for`] with the built-in grace.
    pub fn try_lock(&self) -> Result<LockGuard, LockError> {
        self.request(Some(TRY_LOCK_GRACE))
    }

    /// Like [`ResourceHandle::lock`] with a timeout. An abandoned grant
    /// (one that arrives after the timeout) is released automatically.
    ///
    /// # Errors
    ///
    /// [`LockError::Timeout`] if no grant arrived in time,
    /// [`LockError::NodeDown`] if the node is crashed,
    /// [`LockError::ShuttingDown`] if the cluster shut down.
    pub fn try_lock_for(&self, timeout: Duration) -> Result<LockGuard, LockError> {
        self.request(Some(timeout))
    }

    fn request(&self, timeout: Option<Duration>) -> Result<LockGuard, LockError> {
        let gen = self.via.acquire(self.shard, timeout)?;
        Ok(LockGuard {
            via: Arc::clone(&self.via),
            shard: self.shard,
            gen,
        })
    }
}

/// A single-lock handle bound to one node: the compatibility shim over
/// shard 0 (see [`Cluster::handle`]).
///
/// Clone freely; clones address the same node.
#[derive(Debug, Clone)]
pub struct MutexHandle {
    inner: ResourceHandle,
}

impl MutexHandle {
    /// The node this handle locks through.
    pub fn node(&self) -> NodeId {
        self.inner.node()
    }

    /// Blocks until the distributed lock is granted, returning an RAII
    /// guard that releases on drop.
    ///
    /// # Errors
    ///
    /// As [`ResourceHandle::lock`].
    pub fn lock(&self) -> Result<LockGuard, LockError> {
        self.inner.lock()
    }

    /// Attempts the lock with a short built-in grace.
    ///
    /// # Errors
    ///
    /// As [`ResourceHandle::try_lock`].
    pub fn try_lock(&self) -> Result<LockGuard, LockError> {
        self.inner.try_lock()
    }

    /// Like [`MutexHandle::lock`] with a timeout.
    ///
    /// # Errors
    ///
    /// As [`ResourceHandle::try_lock_for`].
    pub fn try_lock_for(&self, timeout: Duration) -> Result<LockGuard, LockError> {
        self.inner.try_lock_for(timeout)
    }
}

/// RAII guard for a distributed critical section: the lock is held from
/// grant until the guard drops.
///
/// Guards are generation-tagged per shard: if the granting node crashes
/// while the guard is held, the eventual release is recognized as stale
/// and ignored instead of ending a post-recovery critical section. Guards
/// are deliberately not `Clone` — exactly one release per grant. The
/// release runs on the dropping thread.
#[derive(Debug)]
#[must_use = "dropping the guard immediately releases the lock"]
pub struct LockGuard {
    via: Arc<Node>,
    shard: ShardId,
    gen: u64,
}

impl LockGuard {
    /// The shard whose critical section this guard holds.
    pub fn shard(&self) -> ShardId {
        self.shard
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.via.release(self.shard, self.gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn single_node_lock_unlock() {
        let cluster = Cluster::builder(1).build();
        let metrics = cluster.metrics_handle();
        let h = cluster.handle(0).expect("in range");
        for _ in 0..3 {
            let g = h.lock().expect("granted");
            drop(g);
        }
        // Releases run on the dropping thread, before shutdown.
        cluster.shutdown();
        assert_eq!(metrics.cs_completed_total(), 3);
    }

    #[test]
    fn lock_is_mutually_exclusive_across_nodes() {
        let cluster = Arc::new(Cluster::builder(4).build());
        let counter = Arc::new(AtomicU32::new(0));
        let mut joins = Vec::new();
        for i in 0..4 {
            let h = cluster.handle(i).expect("in range");
            let counter = Arc::clone(&counter);
            joins.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let _g = h.lock().expect("granted");
                    // If two guards ever coexist this goes above 1.
                    let c = counter.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(c, 0, "two nodes inside the critical section");
                    std::thread::sleep(Duration::from_micros(200));
                    counter.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for j in joins {
            j.join().expect("worker");
        }
        let cluster = Arc::try_unwrap(cluster).expect("sole owner");
        let metrics = cluster.metrics_handle();
        cluster.shutdown();
        assert_eq!(metrics.cs_completed_total(), 40);
    }

    #[test]
    fn try_lock_timeout_returns_err_and_recovers() {
        let cluster = Cluster::builder(2).build();
        let a = cluster.handle(0).expect("in range");
        let b = cluster.handle(1).expect("in range");
        let g = a.lock().expect("granted");
        // b cannot get it while a holds it.
        assert_eq!(
            b.try_lock_for(Duration::from_millis(100)).err(),
            Some(LockError::Timeout)
        );
        drop(g);
        // The abandoned grant auto-releases; b can lock now.
        let g2 = b.try_lock_for(Duration::from_secs(10)).expect("granted");
        drop(g2);
        cluster.shutdown();
    }

    #[test]
    fn out_of_range_apis_return_typed_errors() {
        let cluster = Cluster::builder(2).build();
        assert_eq!(
            cluster.handle(7).err(),
            Some(LockError::NoSuchNode { node: 7, nodes: 2 })
        );
        assert_eq!(
            cluster.resource_on(9, "x").err(),
            Some(LockError::NoSuchNode { node: 9, nodes: 2 })
        );
        assert_eq!(
            cluster.crash(5),
            Err(FaultError::NoSuchNode { node: 5, nodes: 2 })
        );
        assert_eq!(
            cluster.recover(5),
            Err(FaultError::NoSuchNode { node: 5, nodes: 2 })
        );
        assert_eq!(
            cluster.partition(&[&[0], &[1, 6]]),
            Err(FaultError::NoSuchNode { node: 6, nodes: 2 })
        );
        cluster.shutdown();
    }

    #[test]
    fn resources_map_onto_distinct_shards_and_lock_independently() {
        let cluster = Cluster::builder(2).shards(4).build();
        assert_eq!(cluster.shards(), 4);
        // Find two resources on different shards.
        let a = cluster.resource("res/a");
        let mut b = cluster.resource("res/b");
        for i in 0.. {
            if b.shard() != a.shard() {
                break;
            }
            b = cluster.resource(format!("res/b{i}"));
        }
        // Holding a's lock must not block b: different token instances.
        let ga = a.lock().expect("granted a");
        let gb = b.try_lock_for(Duration::from_secs(10)).expect("granted b");
        drop(gb);
        drop(ga);
        cluster.shutdown();
    }
}
