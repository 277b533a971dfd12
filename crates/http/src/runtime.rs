//! The networked node runtime: the live node loop
//! (`wsg_net::threads::run_node`) with loopback sockets as its send sink.
//!
//! Every `Protocol<Message = String>` node added to a [`NetRuntime`] gets
//! three things:
//!
//! * an HTTP **server** on `127.0.0.1:0` whose service enqueues each
//!   POSTed SOAP envelope — checked for well-formedness and shape, not
//!   decoded — on the node's inbox as the bytes it arrived in;
//! * a **node loop** thread — the same loop `ThreadNet` runs (timers on
//!   the runtime's [`WallClock`], deterministic per-node RNG) — whose
//!   outgoing `ctx.send(to, xml)` calls go to...
//! * a **sender** thread owning a pooled, retrying [`SoapHttpClient`]
//!   that drains everything queued per destination into one POST — a
//!   `urn:ws-gossip:batch` wrapper of one envelope or many, its first
//!   front-coded against the last one the keep-alive connection carried
//!   (see [`crate::batch`] and DESIGN.md §12).
//!
//! Because the node's view of the world is still just `wsg_net::Context`, the
//! gossip protocols run here byte-for-byte unchanged from the simulator —
//! only now a gossip round is real HTTP traffic that `tcpdump` would show.
//!
//! ## Dynamic membership
//!
//! The deployment is **live**: [`NetRuntime::add_node`] binds a socket and
//! starts a node at any point after construction, and
//! [`NetRuntime::remove_node`] / [`NetRuntime::crash`] take one away
//! again. Routing goes through a shared directory — the address table
//! sender threads consult per envelope — so a removed node becomes
//! unroutable immediately and a joined one routable before its first
//! message. `crash` drops the node's listener *before* stopping its loop,
//! so peers see `ECONNREFUSED` mid-conversation exactly like a process
//! kill; their clients' connection pools evict the dead peer's sockets on
//! the first failed connect. The membership plane in `wsg_cluster` builds
//! its join/leave/failure-detection protocol directly on these primitives.
//!
//! ## Fault injection
//!
//! [`NetRuntimeConfig::refuse`] lists nodes that get an address but no
//! listener (the port is bound and immediately released): peers that pick
//! them as gossip targets see `ECONNREFUSED` and walk the client's
//! retry/backoff path, exactly like gossiping to a crashed process.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use wsg_net::protocol::{NodeId, Protocol};
use wsg_net::rng::{Pcg32, SplitMix64};
use wsg_net::sync::{AtomicUsize, Mutex, Ordering};
use wsg_net::threads::{run_node, Inbox};
use wsg_net::time::WallClock;
use wsg_obs::{Counter, HistogramMetric, Registry};
use wsg_soap::{Fault, FaultCode};

use crate::batch::{sender_loop, BatchConfig, OutboundHandle, SenderQueues, WakeSignal};
use crate::client::{HttpClientConfig, PostError, PostOutcome, SoapHttpClient};
use crate::server::{
    HttpServerConfig, SoapHttpServer, SoapReply, SoapRequest, Service, NODE_HEADER,
};

/// The request target every gossip node serves.
pub(crate) const GOSSIP_TARGET: &str = "/gossip";

/// `from` reported to a protocol when the sender did not identify itself
/// with the [`NODE_HEADER`] header (e.g. an external test client).
pub(crate) const EXTERNAL_SENDER: NodeId = NodeId(usize::MAX);

/// Tuning knobs for [`NetRuntime`].
#[derive(Debug, Clone, Default)]
pub struct NetRuntimeConfig {
    /// Client-side (sender thread) configuration, per node.
    pub client: HttpClientConfig,
    /// Server-side configuration, per node.
    pub server: HttpServerConfig,
    /// Nodes that get an address but no listener: connections to them are
    /// refused, exercising peers' retry/backoff paths.
    pub refuse: Vec<NodeId>,
    /// Sender-side envelope-coalescing caps, per node.
    pub batch: BatchConfig,
}

/// Transport-level counters a node's sender thread accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// HTTP POSTs that reached their destination (any HTTP status). With
    /// batching one POST can carry many envelopes — see `msgs_ok`.
    pub posts_ok: u64,
    /// HTTP POSTs abandoned after exhausting retries.
    pub posts_failed: u64,
    /// Envelopes delivered across all successful POSTs (≥ `posts_ok`).
    pub msgs_ok: u64,
    /// Envelopes lost in failed POSTs.
    pub msgs_failed: u64,
    /// POSTs avoided by coalescing: `msgs_ok - posts_ok`.
    pub posts_saved: u64,
    /// Connect attempts across all posts (≥ posts when retries happened).
    pub attempts: u64,
    /// Sends to node ids absent from the directory (dropped).
    pub unroutable: u64,
    /// Queued gossip copies never posted because their peer sent this
    /// node the same notification first (see `SenderQueues::withdraw`).
    pub withdrawn: u64,
}

/// A node's final state after shutdown: protocol + transport counters.
#[derive(Debug)]
pub struct NetNode<P> {
    /// The protocol state machine in its final state.
    pub protocol: P,
    /// What its sender thread saw at the transport level.
    pub transport: TransportStats,
}

/// The live routing table: which node ids are deployed right now, and
/// where.
///
/// Shared (`Arc`) between the runtime and every sender thread. Entries
/// appear when a node is added and vanish when it is removed or crashed,
/// so routing decisions always reflect the current deployment — there is
/// no rebuild-and-redistribute step. Node ids are dense and never reused;
/// `capacity` is the all-time id ceiling (what `Context::node_count`
/// reports), `len` the number currently routable.
#[derive(Debug, Default)]
struct NodeDirectory {
    entries: Mutex<BTreeMap<NodeId, SocketAddr>>,
    capacity: AtomicUsize,
}

impl NodeDirectory {
    /// Where `id` is currently listening, if deployed.
    fn addr_of(&self, id: NodeId) -> Option<SocketAddr> {
        self.entries.lock().get(&id).copied()
    }

    /// One past the highest node id ever deployed (ids are never reused).
    fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    fn insert(&self, id: NodeId, addr: SocketAddr) {
        self.entries.lock().insert(id, addr);
        self.capacity.fetch_max(id.0 + 1, Ordering::AcqRel);
    }

    fn remove(&self, id: NodeId) -> Option<SocketAddr> {
        self.entries.lock().remove(&id)
    }
}

/// One deployed (or formerly deployed) node's runtime plumbing.
struct NodeSlot<P> {
    inbox: Sender<Inbox<String>>,
    node_handle: Option<JoinHandle<P>>,
    sender_handle: Option<JoinHandle<TransportStats>>,
    server: Option<SoapHttpServer>,
    registry: Arc<Registry>,
    outbound: OutboundHandle,
}

impl<P> NodeSlot<P> {
    /// Ask the node loop to exit.
    fn signal_stop(&self) {
        // wsg_lint: allow(E2) — a closed inbox means the node loop already exited; Stop is advisory
        let _ = self.inbox.send(Inbox::Stop);
    }

    /// Wait for the sender thread's final drain (the node loop must have
    /// exited: its last act is the sender's stop token).
    fn join_sender(&mut self) -> TransportStats {
        self.sender_handle
            .take()
            .map(|h| h.join().expect("sender thread panicked"))
            .unwrap_or_default()
    }

    fn close_server(&mut self) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// A live network of protocol nodes on loopback HTTP sockets.
pub struct NetRuntime<P: Protocol<Message = String>> {
    directory: Arc<NodeDirectory>,
    addrs: Vec<SocketAddr>,
    slots: Vec<NodeSlot<P>>,
    external: SoapHttpClient,
    seeder: SplitMix64,
    config: NetRuntimeConfig,
    clock: WallClock,
}

impl<P> NetRuntime<P>
where
    P: Protocol<Message = String> + Send + 'static,
{
    /// An empty runtime: no nodes yet, ready for [`NetRuntime::add_node`].
    ///
    /// `seed` drives every subsequent node's protocol RNG and client
    /// backoff jitter through one `SplitMix64` chain, in add order (the
    /// external client's jitter seed is drawn here, first).
    pub fn new(seed: u64, config: NetRuntimeConfig) -> Self {
        let mut seeder = SplitMix64::new(seed);
        let external = SoapHttpClient::new(seeder.next(), config.client.clone());
        NetRuntime {
            directory: Arc::new(NodeDirectory::default()),
            addrs: Vec::new(),
            slots: Vec::new(),
            external,
            seeder,
            config,
            clock: WallClock::new(),
        }
    }

    /// Bind one loopback socket per protocol and start all nodes.
    ///
    /// All listeners are bound (and entered into the directory) before
    /// any node runs, so the routing table is complete from the first
    /// gossip round — the static-fleet guarantee dynamic joins forgo.
    ///
    /// # Panics
    ///
    /// Panics if a loopback socket cannot be bound — a networked runtime
    /// without a network has no useful degraded mode.
    pub fn spawn(protocols: Vec<P>, seed: u64, config: NetRuntimeConfig) -> Self {
        let mut net = Self::new(seed, config);
        // Phase 1: bind everything so the directory is complete.
        let bound: Vec<(NodeId, Option<TcpListener>)> =
            protocols.iter().map(|_| net.bind_slot()).collect();
        // Phase 2: start the nodes against the full table.
        for (protocol, (id, listener)) in protocols.into_iter().zip(bound) {
            net.start_slot(id, listener, protocol, Vec::new());
        }
        net
    }

    /// Bind a socket, deploy `protocol` on it, and start its threads.
    ///
    /// The node is routable (directory entry present) before its
    /// `on_start` runs. Returns the dense, never-reused id assigned to it.
    ///
    /// # Panics
    ///
    /// Panics if a loopback socket cannot be bound.
    pub fn add_node(&mut self, protocol: P) -> NodeId {
        self.add_node_routed(protocol, Vec::new())
    }

    /// Like [`NetRuntime::add_node`], but serve extra POST routes on the
    /// node's socket: a request whose target path equals a route's target
    /// is answered by that route's service instead of being enqueued on
    /// the protocol inbox. `wsg_cluster` uses this to give every node a
    /// `/membership` endpoint beside its `/gossip` one.
    pub fn add_node_routed(&mut self, protocol: P, routes: Vec<(String, Service)>) -> NodeId {
        let (id, listener) = self.bind_slot();
        self.start_slot(id, listener, protocol, routes);
        id
    }

    /// Assign the next id, bind its listener, and publish its address.
    fn bind_slot(&mut self) -> (NodeId, Option<TcpListener>) {
        let id = NodeId(self.addrs.len());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener local addr");
        self.addrs.push(addr);
        self.directory.insert(id, addr);
        // Keep the address, drop the listener: ECONNREFUSED.
        let listener = if self.config.refuse.contains(&id) { None } else { Some(listener) };
        (id, listener)
    }

    /// Start server, sender and node-loop threads for a bound slot. RNG
    /// draws happen here, in add order, so a given seed always produces
    /// the same per-node streams for the same add sequence.
    fn start_slot(
        &mut self,
        id: NodeId,
        listener: Option<TcpListener>,
        protocol: P,
        routes: Vec<(String, Service)>,
    ) {
        let index = id.0;
        let mut rng = Pcg32::new(self.seeder.next(), index as u64);
        let client_seed = self.seeder.next();
        // One registry per node, shared by its server, its sender
        // thread's client, and its transport counters — `GET /metrics`
        // on the node's socket shows all of them.
        let registry = Arc::new(Registry::new());
        let (inbox_tx, inbox_rx) = channel();
        let queues = Arc::new(SenderQueues::counting(registry.register_counter(
            "wsg_transport_withdrawn_total",
            "Queued gossip copies dropped unposted because their peer sent this node the notification first",
        )));

        // Server: route-matched targets go to their service; everything
        // else is enqueued as received for the node's own thread to parse
        // — after this node's queued copies of that notification to its
        // sender are withdrawn.
        let server = listener.map(|listener| {
            let inbox = inbox_tx.clone();
            let queues = Arc::clone(&queues);
            let service: Service = Arc::new(move |request: SoapRequest| {
                for (target, route) in &routes {
                    if request.target == *target {
                        return route(request);
                    }
                }
                let from = request.from_node.map(NodeId).unwrap_or(EXTERNAL_SENDER);
                if let Some(id) = &request.gossip {
                    queues.withdraw(from, id);
                }
                inbox
                    .send(Inbox::Message { from, msg: request.raw })
                    .map_err(|_| Fault::new(FaultCode::Receiver, "node is shut down"))?;
                Ok(SoapReply::Accepted)
            });
            SoapHttpServer::serve_observed(
                listener,
                service,
                self.config.server.clone(),
                Arc::clone(&registry),
            )
            .expect("start node http server")
        });

        // Sender thread: one pooled client per node draining the shared
        // per-destination queues into batched POSTs, routing through the
        // live directory so removed peers become unroutable immediately.
        let signal = Arc::new(WakeSignal::default());
        let outbound = OutboundHandle::new(Arc::clone(&queues), Arc::clone(&signal));
        let client = SoapHttpClient::new_observed(client_seed, self.config.client.clone(), &registry);
        let transport = TransportMetrics::new(&registry);
        let directory = Arc::clone(&self.directory);
        let batch_config = self.config.batch.clone();
        let sender_handle = std::thread::Builder::new()
            .name(format!("wsg-net-sender-{index}"))
            .spawn(move || {
                run_sender(index, signal, queues, batch_config, client, directory, transport)
            })
            .expect("spawn sender thread");

        // Node loop: the shared live loop with the sender's queues as
        // its sink, reading the fleet-wide clock.
        let directory = Arc::clone(&self.directory);
        let clock = self.clock;
        let out = outbound.clone();
        let node_handle = std::thread::Builder::new()
            .name(format!("wsg-net-node-{index}"))
            .spawn(move || {
                let protocol = run_node(
                    protocol,
                    id,
                    inbox_rx,
                    &mut rng,
                    &clock,
                    || directory.capacity(),
                    |to, xml| out.send(to, xml),
                );
                // The sender drains what is queued, then exits — an
                // explicit token, not channel disconnect, so outstanding
                // OutboundHandle clones (e.g. a cluster pump's) can never
                // wedge shutdown.
                out.stop();
                protocol
            })
            .expect("spawn node thread");

        self.slots.push(NodeSlot {
            inbox: inbox_tx,
            node_handle: Some(node_handle),
            sender_handle: Some(sender_handle),
            server,
            registry,
            outbound,
        });
    }

    /// Gracefully stop node `id`: its loop drains, its queued envelopes
    /// are sent, then its listener closes. Returns its final state, or
    /// [`None`] if `id` was never deployed or is already stopped.
    pub fn remove_node(&mut self, id: NodeId) -> Option<NetNode<P>> {
        self.stop_node(id, true)
    }

    /// Crash-stop node `id`: its listener closes **first**, so peers mid-
    /// conversation see connection-refused (and their pools evict its
    /// sockets), then the loop is killed with its outbound queue drained
    /// best-effort. Returns the final state for post-mortem assertions.
    pub fn crash(&mut self, id: NodeId) -> Option<NetNode<P>> {
        self.stop_node(id, false)
    }

    fn stop_node(&mut self, id: NodeId, graceful: bool) -> Option<NetNode<P>> {
        let slot = self.slots.get_mut(id.0)?;
        let node_handle = slot.node_handle.take()?;
        self.directory.remove(id);
        if !graceful {
            slot.close_server();
        }
        slot.signal_stop();
        let protocol = node_handle.join().expect("node thread panicked");
        let transport = slot.join_sender();
        slot.close_server();
        Some(NetNode { protocol, transport })
    }

    /// The clock every node loop reads (`ctx.now()`): process uptime since
    /// this runtime was created. Layers that timestamp alongside the
    /// nodes (`wsg_cluster`'s planes) share it so there is one epoch.
    pub fn clock(&self) -> WallClock {
        self.clock
    }

    /// The socket address node `id` serves, served, or would serve (if
    /// refused). Stable across removal so tests can probe dead ports.
    pub fn addr_of(&self, id: NodeId) -> SocketAddr {
        self.addrs[id.0]
    }

    /// Node `id`'s metric registry — what its `GET /metrics` renders.
    /// Refused nodes have a registry too (their sender thread still
    /// accumulates transport counters); it just isn't scrapeable.
    pub fn registry_of(&self, id: NodeId) -> Arc<Registry> {
        Arc::clone(&self.slots[id.0].registry)
    }

    /// A handle on node `id`'s outbound path: lets other producers (the
    /// `wsg_cluster` heartbeat pump) piggyback messages onto batches the
    /// node's sender is already forming, and hook connection-refused
    /// notifications. Valid even after the node stops — piggybacks then
    /// simply find no forming batch.
    pub fn outbound_of(&self, id: NodeId) -> OutboundHandle {
        self.slots[id.0].outbound.clone()
    }

    /// Total nodes ever deployed (the id ceiling), including removed ones.
    pub fn node_count(&self) -> usize {
        self.addrs.len()
    }

    /// Nodes currently deployed and routable.
    #[cfg(test)]
    pub(crate) fn live_count(&self) -> usize {
        self.directory.entries.lock().len()
    }

    /// POST an envelope to node `to` over a real socket, as an external
    /// client (no node-id header, so the protocol sees the external
    /// sender, `NodeId(usize::MAX)`). Targets `to`'s historical address, so posting
    /// to a crashed node fails like any dead peer.
    ///
    /// # Errors
    ///
    /// [`PostError`] if the node is unreachable after retries.
    pub fn post_external(
        &self,
        to: NodeId,
        action: Option<&str>,
        xml: &str,
    ) -> Result<PostOutcome, PostError> {
        self.external.post(self.addrs[to.0], GOSSIP_TARGET, action, &[], xml.as_bytes())
    }

    /// Inject a message into node `to`'s inbox directly (no socket), as if
    /// sent by `from`. Silently dropped if `to` was removed.
    #[cfg(test)]
    pub(crate) fn send_local(&self, from: NodeId, to: NodeId, xml: String) {
        if let Some(slot) = self.slots.get(to.0) {
            let _ = slot.inbox.send(Inbox::Message { from, msg: xml });
        }
    }

    /// Let the network run for `duration` of wall-clock time, then stop.
    pub fn shutdown_after(self, duration: Duration) -> Vec<NetNode<P>> {
        std::thread::sleep(duration);
        self.shutdown()
    }

    /// Stop all still-deployed nodes and return their final states in id
    /// order (nodes already removed or crashed are not re-reported).
    ///
    /// Ordering matters: node loops stop first (dropping their outbound
    /// queues), then sender threads drain what was already queued, then
    /// the servers close — so no in-flight envelope is lost to shutdown.
    pub fn shutdown(mut self) -> Vec<NetNode<P>> {
        self.slots.iter().for_each(NodeSlot::signal_stop);
        let protocols: Vec<Option<P>> = self
            .slots
            .iter_mut()
            .map(|slot| slot.node_handle.take().map(|h| h.join().expect("node thread panicked")))
            .collect();
        let transports: Vec<TransportStats> =
            self.slots.iter_mut().map(NodeSlot::join_sender).collect();
        self.slots.iter_mut().for_each(NodeSlot::close_server);
        protocols
            .into_iter()
            .zip(transports)
            .filter_map(|(protocol, transport)| {
                protocol.map(|protocol| NetNode { protocol, transport })
            })
            .collect()
    }
}

/// Live `wsg_transport_*` counters mirrored into a node's registry by
/// its sender thread, alongside the `TransportStats` it returns on join.
struct TransportMetrics {
    posts_ok: Arc<Counter>,
    posts_failed: Arc<Counter>,
    batch_msgs: Arc<HistogramMetric>,
    posts_saved: Arc<Counter>,
    batch_shared_bytes: Arc<Counter>,
    attempts: Arc<Counter>,
    unroutable: Arc<Counter>,
}

impl TransportMetrics {
    fn new(registry: &Registry) -> Self {
        TransportMetrics {
            posts_ok: registry.register_counter(
                "wsg_transport_posts_ok_total",
                "HTTP POSTs this node's sender completed successfully",
            ),
            posts_failed: registry.register_counter(
                "wsg_transport_posts_failed_total",
                "HTTP POSTs that failed after all retries",
            ),
            batch_msgs: registry.register_histogram(
                "wsg_transport_batch_msgs",
                "Envelopes coalesced into each successful POST",
            ),
            posts_saved: registry.register_counter(
                "wsg_transport_posts_saved_total",
                "POSTs avoided by coalescing queued envelopes into batches",
            ),
            batch_shared_bytes: registry.register_counter(
                "wsg_transport_batch_shared_bytes_total",
                "Bytes a batched message left out because the message before it on the connection already carried them",
            ),
            attempts: registry.register_counter(
                "wsg_transport_attempts_total",
                "Connection attempts made by the node's sender thread",
            ),
            unroutable: registry.register_counter(
                "wsg_transport_unroutable_total",
                "Outbound envelopes addressed to node ids absent from the directory",
            ),
        }
    }
}

/// A node's sender thread: [`sender_loop`] with the HTTP posting step —
/// route, POST as a batch front-coded against the connection, account.
fn run_sender(
    index: usize,
    signal: Arc<WakeSignal>,
    queues: Arc<SenderQueues>,
    config: BatchConfig,
    client: SoapHttpClient,
    directory: Arc<NodeDirectory>,
    metrics: TransportMetrics,
) -> TransportStats {
    let mut stats = TransportStats::default();
    let node_header = [(NODE_HEADER.to_string(), index.to_string())];
    sender_loop(&signal, &queues, &config, |to, batch| {
        let count = batch.len() as u64;
        // Route through the live directory: a peer removed after these
        // envelopes were queued is dropped here instead of dialed.
        let Some(addr) = directory.addr_of(to) else {
            stats.unroutable += count;
            metrics.unroutable.add(count);
            return;
        };
        let items = batch.iter().map(|m| (m.target.as_deref(), m.parts()));
        match client.post_batch(addr, GOSSIP_TARGET, &node_header, items) {
            Ok(outcome) => {
                stats.posts_ok += 1;
                stats.msgs_ok += count;
                stats.posts_saved += count - 1;
                stats.attempts += u64::from(outcome.attempts);
                metrics.posts_ok.inc();
                metrics.batch_msgs.observe(count);
                metrics.posts_saved.add(count - 1);
                metrics.batch_shared_bytes.add(outcome.left_out as u64);
                metrics.attempts.add(u64::from(outcome.attempts));
            }
            Err(err) => {
                stats.posts_failed += 1;
                stats.msgs_failed += count;
                stats.attempts += u64::from(err.attempts);
                metrics.posts_failed.inc();
                metrics.attempts.add(u64::from(err.attempts));
                // Refused means nobody is listening on that socket; let
                // whoever registered a hook (the membership plane) know.
                if err.last.kind() == std::io::ErrorKind::ConnectionRefused {
                    queues.notify_unreachable(addr);
                }
            }
        }
    });
    stats.withdrawn = queues.withdrawn();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::protocol::{Context, TimerTag};
    use wsg_net::threads::ThreadNet;
    use wsg_net::time::{SimDuration, SimTime};
    use wsg_soap::batch::{write_batch, BatchItem, BATCH_ACTION};
    use wsg_soap::{Envelope, MessageHeaders};
    use wsg_xml::Element;

    fn envelope_xml(op: &str, action: &str) -> String {
        Envelope::request(
            MessageHeaders::request("http://peer/gossip", action),
            Element::text_node("op", op),
        )
        .to_xml()
    }

    /// Replies "pong" to every "ping"; records everything it saw.
    struct Ponger {
        seen: Vec<(NodeId, String)>,
    }

    impl Protocol for Ponger {
        type Message = String;
        fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut dyn Context<String>) {
            let op = Envelope::parse(&msg)
                .ok()
                .and_then(|e| e.body().map(|b| b.text()))
                .unwrap_or_default();
            if op == "ping" && from != EXTERNAL_SENDER {
                ctx.send(from, envelope_xml("pong", "urn:test:Pong"));
            }
            self.seen.push((from, op));
        }
    }

    fn quick_config() -> NetRuntimeConfig {
        NetRuntimeConfig {
            client: HttpClientConfig {
                retries: 1,
                backoff_base: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(10),
                connect_timeout: Duration::from_millis(300),
                ..HttpClientConfig::default()
            },
            ..NetRuntimeConfig::default()
        }
    }

    const EARLY: TimerTag = TimerTag(1);
    const LATE: TimerTag = TimerTag(2);

    /// Exercises the live loop's contract from inside a protocol: node 0
    /// sends from `on_start`, arms two timers in reverse deadline order,
    /// and re-arms the early one once from `on_timer`.
    #[derive(Default)]
    struct LoopProbe {
        fired: Vec<(TimerTag, SimTime)>,
        seen: Vec<(NodeId, String)>,
    }

    impl Protocol for LoopProbe {
        type Message = String;
        fn on_start(&mut self, ctx: &mut dyn Context<String>) {
            if ctx.self_id() == NodeId(0) {
                ctx.send(NodeId(1), envelope_xml("hello", "urn:test:Hello"));
                ctx.set_timer(SimDuration::from_millis(300), LATE);
                ctx.set_timer(SimDuration::from_millis(20), EARLY);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: String, _ctx: &mut dyn Context<String>) {
            self.seen.push((from, msg));
        }
        fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<String>) {
            if tag == EARLY && self.fired.is_empty() {
                ctx.set_timer(SimDuration::from_millis(20), EARLY);
            }
            self.fired.push((tag, ctx.now()));
        }
    }

    /// The one generic body: deploy two probes on `run`'s runtime for
    /// ~600 ms and check what the loop promised them.
    fn assert_loop_contract(run: impl FnOnce(Vec<LoopProbe>) -> Vec<LoopProbe>) {
        let nodes = run(vec![LoopProbe::default(), LoopProbe::default()]);
        let tags: Vec<TimerTag> = nodes[0].fired.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(
            tags,
            vec![EARLY, EARLY, LATE],
            "deadline order, not arming order; the re-armed timer fires again"
        );
        let times: Vec<SimTime> = nodes[0].fired.iter().map(|(_, at)| *at).collect();
        assert!(times[0] >= SimTime::from_millis(20), "fired early: {times:?}");
        assert!(times[1] >= times[0] + SimDuration::from_millis(20), "re-arm counts from the firing: {times:?}");
        assert!(times[2] >= SimTime::from_millis(300), "fired early: {times:?}");
        assert_eq!(
            nodes[1].seen,
            vec![(NodeId(0), envelope_xml("hello", "urn:test:Hello"))],
            "on_start's send is delivered once, from its sender"
        );
        assert!(nodes[0].seen.is_empty() && nodes[1].fired.is_empty());
    }

    #[test]
    fn loop_contract_holds_on_the_channel_sink() {
        assert_loop_contract(|probes| {
            ThreadNet::spawn(probes, 5).shutdown_after(Duration::from_millis(600))
        });
    }

    #[test]
    fn loop_contract_holds_on_the_socket_sink() {
        assert_loop_contract(|probes| {
            NetRuntime::spawn(probes, 5, quick_config())
                .shutdown_after(Duration::from_millis(600))
                .into_iter()
                .map(|node| node.protocol)
                .collect()
        });
    }

    #[test]
    fn two_nodes_exchange_envelopes_over_sockets() {
        let net = NetRuntime::spawn(
            vec![Ponger { seen: Vec::new() }, Ponger { seen: Vec::new() }],
            42,
            quick_config(),
        );
        net.send_local(NodeId(1), NodeId(0), envelope_xml("ping", "urn:test:Ping"));
        let nodes = net.shutdown_after(Duration::from_millis(700));
        // Node 0 saw the injected ping; node 1 got the pong over HTTP.
        assert!(nodes[0].protocol.seen.iter().any(|(f, op)| *f == NodeId(1) && op == "ping"));
        assert!(
            nodes[1].protocol.seen.iter().any(|(f, op)| *f == NodeId(0) && op == "pong"),
            "pong never arrived over the socket: {:?}",
            nodes[1].protocol.seen
        );
        assert_eq!(nodes[0].transport.posts_ok, 1);
        assert_eq!(nodes[0].transport.posts_failed, 0);
    }

    #[test]
    fn external_posts_reach_the_protocol() {
        let net = NetRuntime::spawn(vec![Ponger { seen: Vec::new() }], 7, quick_config());
        let outcome = net
            .post_external(NodeId(0), Some("urn:test:Ping"), &envelope_xml("hello", "urn:test:Ping"))
            .unwrap();
        assert_eq!(outcome.response.status, 202);
        let nodes = net.shutdown_after(Duration::from_millis(300));
        assert!(nodes[0].protocol.seen.iter().any(|(f, op)| *f == EXTERNAL_SENDER && op == "hello"));
    }

    #[test]
    fn refused_node_exercises_retry_and_failure_accounting() {
        let mut config = quick_config();
        config.refuse = vec![NodeId(1)];
        let net = NetRuntime::spawn(
            vec![Ponger { seen: Vec::new() }, Ponger { seen: Vec::new() }],
            13,
            config,
        );
        // Make node 0 believe node 1 pinged it; the pong gets refused.
        net.send_local(NodeId(1), NodeId(0), envelope_xml("ping", "urn:test:Ping"));
        let nodes = net.shutdown_after(Duration::from_millis(900));
        assert_eq!(nodes[0].transport.posts_failed, 1);
        assert!(
            nodes[0].transport.attempts >= 2,
            "refused post should have retried: {:?}",
            nodes[0].transport
        );
        assert!(nodes[1].protocol.seen.is_empty());
    }

    #[test]
    fn node_registry_collects_server_client_and_transport_families() {
        let net = NetRuntime::spawn(
            vec![Ponger { seen: Vec::new() }, Ponger { seen: Vec::new() }],
            42,
            quick_config(),
        );
        net.send_local(NodeId(1), NodeId(0), envelope_xml("ping", "urn:test:Ping"));
        let sender_side = net.registry_of(NodeId(0));
        let receiver_side = net.registry_of(NodeId(1));
        let nodes = net.shutdown_after(Duration::from_millis(700));
        assert_eq!(nodes[0].transport.posts_ok, 1);
        // The ping was injected locally, so the only HTTP traffic is the
        // pong: node 0's registry shows its client and transport counters,
        // node 1's shows the server that answered the post.
        let sent = sender_side.render();
        assert!(sent.contains("wsg_http_client_posts_total 1"), "{sent}");
        assert!(sent.contains("wsg_transport_posts_ok_total 1"), "{sent}");
        assert!(sent.contains("wsg_transport_posts_failed_total 0"), "{sent}");
        let received = receiver_side.render();
        assert!(received.contains("wsg_http_server_requests_total 1"), "{received}");
        assert!(received.contains("wsg_http_server_responses_total{class=\"2xx\"} 1"), "{received}");
    }

    #[test]
    fn unroutable_sends_are_counted_not_fatal() {
        struct SendsNowhere;
        impl Protocol for SendsNowhere {
            type Message = String;
            fn on_start(&mut self, ctx: &mut dyn Context<String>) {
                ctx.send(NodeId(999), envelope_xml("lost", "urn:test:Lost"));
            }
            fn on_message(&mut self, _: NodeId, _: String, _: &mut dyn Context<String>) {}
        }
        let net = NetRuntime::spawn(vec![SendsNowhere], 3, quick_config());
        let nodes = net.shutdown_after(Duration::from_millis(200));
        assert_eq!(nodes[0].transport.unroutable, 1);
        assert_eq!(nodes[0].transport.posts_ok, 0);
    }

    #[test]
    fn nodes_join_a_running_deployment() {
        let mut net = NetRuntime::new(51, quick_config());
        let a = net.add_node(Ponger { seen: Vec::new() });
        assert_eq!((net.node_count(), net.live_count()), (1, 1));
        let b = net.add_node(Ponger { seen: Vec::new() });
        assert_eq!((net.node_count(), net.live_count()), (2, 2));
        assert_ne!(net.addr_of(a), net.addr_of(b));
        // The late joiner is immediately routable: a ping to the founder
        // comes back to it over a real socket.
        net.send_local(b, a, envelope_xml("ping", "urn:test:Ping"));
        let nodes = net.shutdown_after(Duration::from_millis(700));
        assert!(
            nodes[b.0].protocol.seen.iter().any(|(f, op)| *f == a && op == "pong"),
            "joiner never got the pong: {:?}",
            nodes[b.0].protocol.seen
        );
    }

    #[test]
    fn crashed_node_is_refused_and_unrouted() {
        let mut net = NetRuntime::spawn(
            vec![Ponger { seen: Vec::new() }, Ponger { seen: Vec::new() }],
            29,
            quick_config(),
        );
        let crashed = net.crash(NodeId(1)).expect("node 1 was deployed");
        assert!(crashed.protocol.seen.is_empty());
        assert_eq!(net.live_count(), 1);
        assert!(net.crash(NodeId(1)).is_none(), "second crash is a no-op");
        // Its port now refuses connections...
        assert!(net.post_external(NodeId(1), None, &envelope_xml("x", "urn:test:X")).is_err());
        // ...and envelopes queued for it are dropped as unroutable.
        net.send_local(NodeId(1), NodeId(0), envelope_xml("ping", "urn:test:Ping"));
        let nodes = net.shutdown_after(Duration::from_millis(700));
        assert_eq!(nodes.len(), 1, "only the survivor reports");
        assert_eq!(nodes[0].transport.unroutable, 1, "pong to the crashed peer dropped");
        assert_eq!(nodes[0].transport.posts_failed, 0, "dropped before dialing");
    }

    #[test]
    fn batched_posts_unbundle_into_individual_dispatches() {
        let route_hits: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let hits = Arc::clone(&route_hits);
        let route: Service = Arc::new(move |request: SoapRequest| {
            hits.lock().push(request.envelope()?.body().map(|b| b.text()).unwrap_or_default());
            Ok(SoapReply::Accepted)
        });
        let mut net = NetRuntime::new(99, quick_config());
        let id = net.add_node_routed(
            Ponger { seen: Vec::new() },
            vec![("/membership".to_string(), route)],
        );
        let xmls = [
            envelope_xml("a", "urn:test:A"),
            envelope_xml("b", "urn:test:B"),
            envelope_xml("hb", "urn:test:HB"),
        ];
        let items = vec![
            BatchItem { target: None, xml: &xmls[0] },
            BatchItem { target: None, xml: &xmls[1] },
            BatchItem { target: Some("/membership"), xml: &xmls[2] },
        ];
        let mut wire = String::new();
        write_batch(&items, &mut wire);
        let outcome = net.post_external(id, Some(BATCH_ACTION), &wire).unwrap();
        assert_eq!(outcome.response.status, 202, "one 202 for the whole batch");
        let nodes = net.shutdown_after(Duration::from_millis(300));
        // The two untargeted envelopes reached the inbox in order; the
        // piggybacked one was routed to /membership instead.
        let ops: Vec<&str> = nodes[0].protocol.seen.iter().map(|(_, op)| op.as_str()).collect();
        assert_eq!(ops, vec!["a", "b"]);
        assert_eq!(*route_hits.lock(), vec!["hb".to_string()]);
    }

    #[test]
    fn burst_sends_coalesce_with_exact_message_accounting() {
        enum Role {
            Burst,
            Sink(Vec<String>),
        }
        impl Protocol for Role {
            type Message = String;
            fn on_start(&mut self, ctx: &mut dyn Context<String>) {
                if matches!(self, Role::Burst) {
                    for n in 0..8 {
                        ctx.send(NodeId(1), envelope_xml(&format!("burst-{n}"), "urn:test:Burst"));
                    }
                }
            }
            fn on_message(&mut self, _from: NodeId, msg: String, _ctx: &mut dyn Context<String>) {
                if let Role::Sink(seen) = self {
                    let op = Envelope::parse(&msg)
                        .ok()
                        .and_then(|e| e.body().map(|b| b.text()))
                        .unwrap_or_default();
                    seen.push(op);
                }
            }
        }
        let default_cap = BatchConfig::default().max_batch_msgs;
        for cap in [1, default_cap] {
            let config = NetRuntimeConfig {
                batch: BatchConfig { max_batch_msgs: cap, ..BatchConfig::default() },
                ..quick_config()
            };
            let net = NetRuntime::spawn(vec![Role::Burst, Role::Sink(Vec::new())], 11, config);
            let registry = net.registry_of(NodeId(0));
            let nodes = net.shutdown_after(Duration::from_millis(700));
            let transport = nodes[0].transport;
            assert_eq!(transport.msgs_ok, 8, "every envelope delivered: {transport:?}");
            assert!(
                (1..=8).contains(&transport.posts_ok),
                "posts bounded by message count: {transport:?}"
            );
            assert_eq!(transport.posts_saved, transport.msgs_ok - transport.posts_ok);
            if cap == 1 {
                // Cap 1 disables coalescing: one POST per envelope.
                assert_eq!(transport.posts_saved, 0, "{transport:?}");
                assert_eq!(transport.msgs_ok, transport.posts_ok, "{transport:?}");
            }
            let Role::Sink(seen) = &nodes[1].protocol else {
                panic!("node 1 is the sink");
            };
            // FIFO per peer survives coalescing: delivery order == send
            // order, whatever batch boundaries the drain produced.
            let want: Vec<String> = (0..8).map(|n| format!("burst-{n}")).collect();
            assert_eq!(*seen, want);
            let rendered = registry.render();
            assert!(rendered.contains("wsg_transport_batch_msgs_count"), "{rendered}");
            assert!(rendered.contains("wsg_transport_posts_saved_total"), "{rendered}");
            // Eight envelopes that differ in one digit over one keep-alive
            // connection: whatever batches the drain formed, each message
            // after the first left nearly all of itself out — one POST per
            // message or many.
            let shared = rendered
                .lines()
                .find_map(|line| line.strip_prefix("wsg_transport_batch_shared_bytes_total "))
                .and_then(|value| value.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{rendered}"));
            let each = envelope_xml("burst-0", "urn:test:Burst").len() as u64;
            if cap != 1 {
                assert!(transport.posts_saved > 0, "the burst outran the sender: {transport:?}");
            }
            assert!(shared > 7 * each / 2, "{shared} of {transport:?}");
            assert!(shared < 7 * each, "{shared} of {transport:?}");
        }
    }

    #[test]
    fn extra_routes_are_served_beside_the_inbox() {
        let route: Service = Arc::new(|request: SoapRequest| {
            assert_eq!(request.target, "/membership");
            Ok(SoapReply::Accepted)
        });
        let mut net = NetRuntime::new(77, quick_config());
        let id = net.add_node_routed(
            Ponger { seen: Vec::new() },
            vec![("/membership".to_string(), route)],
        );
        let client = SoapHttpClient::new(5, HttpClientConfig::default());
        let xml = envelope_xml("probe", "urn:test:Probe");
        let outcome = client
            .post(net.addr_of(id), "/membership", None, &[], xml.as_bytes())
            .unwrap();
        assert_eq!(outcome.response.status, 202);
        // The routed request must NOT have reached the protocol inbox.
        let nodes = net.shutdown_after(Duration::from_millis(200));
        assert!(
            nodes[0].protocol.seen.is_empty(),
            "routed request leaked into the inbox: {:?}",
            nodes[0].protocol.seen
        );
    }
}
