//! The deterministic discrete-event simulator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::latency::LatencyModel;
use crate::protocol::{Context, NodeId, Protocol, TimerTag};
use crate::rng::{Pcg32, Rng64, RngExt, SplitMix64};
use crate::stats::SimStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKind, Tracer};

/// Renders a message into a short human-readable trace label.
pub type LabelFn<M> = Box<dyn Fn(&M) -> String>;

/// Computes the wire size of a message for bandwidth accounting.
pub(crate) type SizeFn<M> = Box<dyn Fn(&M) -> usize>;

/// Configuration for a simulation run.
///
/// ```
/// use wsg_net::{SimConfig, LatencyModel};
///
/// let config = SimConfig::default()
///     .seed(42)
///     .latency(LatencyModel::uniform_millis(1, 10))
///     .drop_probability(0.05);
/// assert_eq!(config.master_seed(), 42);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    seed: u64,
    latency: LatencyModel,
    drop_probability: f64,
    duplicate_probability: f64,
    max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::default(),
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            max_events: 50_000_000,
        }
    }
}

impl SimConfig {
    /// Set the master seed; every random decision in the run derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the link latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Probability that any given message is silently lost.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0,1]");
        self.drop_probability = p;
        self
    }

    /// Probability that any given message is delivered twice.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn duplicate_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate probability must be in [0,1]");
        self.duplicate_probability = p;
        self
    }

    /// The configured master seed. Node builders that keep their own
    /// deterministic RNG streams (outside the simulator's per-node RNGs)
    /// should derive them from this, so a run stays a pure function of
    /// the seed.
    pub fn master_seed(&self) -> u64 {
        self.seed
    }
}

enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: MsgSlot<M>, duplicate: bool },
    Timer { node: NodeId, tag: TimerTag },
}

/// Payload slot of a queued delivery. A duplicated send shares the one
/// serialised message between its in-flight copies via `Rc` instead of
/// deep-cloning it at enqueue time; the deep clone happens only if both
/// copies actually reach a live node (the later delivery unwraps the `Rc`
/// for free, and a copy dropped at a crashed receiver never clones at all).
enum MsgSlot<M> {
    Owned(M),
    Shared(Rc<M>),
}

impl<M: Clone> MsgSlot<M> {
    fn get(&self) -> &M {
        match self {
            MsgSlot::Owned(m) => m,
            MsgSlot::Shared(rc) => rc,
        }
    }

    fn take(self) -> M {
        match self {
            MsgSlot::Owned(m) => m,
            MsgSlot::Shared(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()),
        }
    }
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    // Reversed so the std max-heap pops the *earliest* event; ties broken
    // by insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct NodeCtx<'a, M> {
    now: SimTime,
    id: NodeId,
    node_count: usize,
    rng: &'a mut Pcg32,
    outbox: Vec<(NodeId, M)>,
    timer_requests: Vec<(SimDuration, TimerTag)>,
}

impl<M> Context<M> for NodeCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn self_id(&self) -> NodeId {
        self.id
    }
    fn node_count(&self) -> usize {
        self.node_count
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) {
        self.timer_requests.push((delay, tag));
    }
    fn rng(&mut self) -> &mut dyn Rng64 {
        self.rng
    }
}

/// A deterministic discrete-event network of [`Protocol`] nodes.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct SimNet<P: Protocol> {
    config: SimConfig,
    now: SimTime,
    queue: BinaryHeap<Event<P::Message>>,
    seq: u64,
    nodes: Vec<Option<P>>,
    node_rngs: Vec<Pcg32>,
    net_rng: Pcg32,
    seeder: SplitMix64,
    crashed: Vec<bool>,
    // Partition group per node; all equal = fully connected.
    group: Vec<u32>,
    // Extra processing delay per node (perturbation, experiment E5).
    perturbation: Vec<SimDuration>,
    stats: SimStats,
    tracer: Option<Tracer>,
    label_fn: Option<LabelFn<P::Message>>,
    size_fn: Option<SizeFn<P::Message>>,
    events_processed: u64,
}

impl<P: Protocol> std::fmt::Debug for SimNet<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P: Protocol> SimNet<P> {
    /// An empty network with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        let mut seeder = SplitMix64::new(config.seed);
        let net_rng = Pcg32::new(seeder.next(), 0xFFFF);
        SimNet {
            config,
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            nodes: Vec::new(),
            node_rngs: Vec::new(),
            net_rng,
            seeder,
            crashed: Vec::new(),
            group: Vec::new(),
            perturbation: Vec::new(),
            stats: SimStats::default(),
            tracer: None,
            label_fn: None,
            size_fn: None,
            events_processed: 0,
        }
    }

    /// Add a node running `protocol`; returns its identity.
    pub fn add_node(&mut self, protocol: P) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(protocol));
        self.node_rngs
            .push(Pcg32::new(self.seeder.next(), id.0 as u64));
        self.crashed.push(false);
        self.group.push(0);
        self.perturbation.push(SimDuration::ZERO);
        self.stats.ensure_node(id);
        id
    }

    /// Add `n` nodes produced by `make` (passed each node's id).
    pub fn add_nodes(&mut self, n: usize, mut make: impl FnMut(NodeId) -> P) -> Vec<NodeId> {
        (0..n)
            .map(|_| {
                let id = NodeId(self.nodes.len());
                self.add_node(make(id))
            })
            .collect()
    }

    /// Install a trace sink receiving every network-level event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Install a message-label function used in traces.
    pub fn set_label_fn(&mut self, f: LabelFn<P::Message>) {
        self.label_fn = Some(f);
    }

    /// Install a message-size function enabling byte accounting.
    pub fn set_size_fn(&mut self, f: SizeFn<P::Message>) {
        self.size_fn = Some(f);
    }

    /// Invoke every node's [`Protocol::on_start`].
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            self.with_node(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// Inject a message from outside the simulated network; it is subject
    /// to the same latency/loss model as protocol traffic.
    pub fn send_external(&mut self, from: NodeId, to: NodeId, msg: P::Message) {
        self.enqueue_send(from, to, msg);
    }

    /// Crash a node: it stops receiving messages and timers until
    /// [`SimNet::recover`].
    pub fn crash(&mut self, node: NodeId) {
        self.crashed[node.0] = true;
    }

    /// Recover a crashed node (its protocol state is as it was — a
    /// fail-recover model; use a fresh node for fail-stop + rejoin). The
    /// node's [`Protocol::on_recover`] hook runs so it can re-arm timers.
    pub fn recover(&mut self, node: NodeId) {
        if !self.crashed[node.0] {
            return;
        }
        self.crashed[node.0] = false;
        self.with_node(node, |n, ctx| n.on_recover(ctx));
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.0]
    }

    /// Partition the network in two: `isolated` on one side, everyone else
    /// on the other. Messages across the cut are dropped.
    pub fn isolate(&mut self, isolated: &[NodeId]) {
        for g in &mut self.group {
            *g = 0;
        }
        for node in isolated {
            self.group[node.0] = 1;
        }
    }

    /// Partition the network into arbitrary groups: `groups[i]` lists the
    /// members of group `i`; nodes not mentioned join group 0. Messages
    /// only flow within a group.
    pub fn partition(&mut self, groups: &[&[NodeId]]) {
        for g in &mut self.group {
            *g = 0;
        }
        for (index, members) in groups.iter().enumerate() {
            for node in *members {
                self.group[node.0] = index as u32;
            }
        }
    }

    /// Remove any partition.
    pub fn heal(&mut self) {
        for g in &mut self.group {
            *g = 0;
        }
    }

    /// Add fixed extra processing delay to deliveries at `node` — the
    /// "perturbed process" model from the bimodal-multicast experiment.
    pub fn perturb(&mut self, node: NodeId, extra: SimDuration) {
        self.perturbation[node.0] = extra;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared access to a node's protocol state.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within that node's own handler.
    pub fn node(&self, id: NodeId) -> &P {
        self.nodes[id.0].as_ref().expect("node is executing")
    }

    /// Mutable access to a node's protocol state.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within that node's own handler.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        self.nodes[id.0].as_mut().expect("node is executing")
    }

    /// Run `f` against a node with a live [`Context`], applying any sends
    /// and timers it issues — the way external clients (e.g. an application
    /// publishing through its local middleware) interact with a node.
    pub fn invoke(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut dyn Context<P::Message>)) {
        self.with_node(id, f);
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).map(NodeId).collect()
    }

    /// Counters collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Process a single event. Returns its time, or `None` when idle.
    pub fn step(&mut self) -> Option<SimTime> {
        let event = self.queue.pop()?;
        self.events_processed += 1;
        debug_assert!(event.time >= self.now, "event time precedes now");
        self.now = event.time;
        match event.kind {
            EventKind::Deliver { from, to, msg, duplicate } => {
                self.deliver(from, to, msg, duplicate);
            }
            EventKind::Timer { node, tag } => {
                if !self.crashed[node.0] {
                    self.stats.timers_fired += 1;
                    self.trace(TraceKind::TimerFired, node, node, String::new());
                    self.with_node(node, |n, ctx| n.on_timer(tag, ctx));
                }
            }
        }
        Some(self.now)
    }

    /// Run until the queue is empty or the event limit is hit. Returns the
    /// number of events processed.
    pub fn run_to_quiescence(&mut self) -> u64 {
        let start = self.events_processed;
        while self.events_processed - start < self.config.max_events {
            if self.step().is_none() {
                break;
            }
        }
        self.events_processed - start
    }

    /// Run all events with `time <= deadline`; afterwards `now() ==
    /// deadline` (even when idle earlier).
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.events_processed;
        while let Some(event) = self.queue.peek() {
            if event.time > deadline {
                break;
            }
            if self.events_processed - start >= self.config.max_events {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_processed - start
    }

    fn trace(&mut self, kind: TraceKind, from: NodeId, to: NodeId, label: String) {
        if let Some(tracer) = &mut self.tracer {
            tracer(&TraceEvent { time: self.now, kind, from, to, label });
        }
    }

    fn label(&self, msg: &P::Message) -> String {
        match &self.label_fn {
            Some(f) => f(msg),
            None => String::new(),
        }
    }

    fn enqueue_send(&mut self, from: NodeId, to: NodeId, msg: P::Message) {
        self.stats.sent += 1;
        self.stats.sent_per_node[from.0] += 1;
        if let Some(size_fn) = &self.size_fn {
            self.stats.bytes_sent += size_fn(&msg) as u64;
        }
        let label = self.label(&msg);
        self.trace(TraceKind::Send, from, to, label.clone());

        // Partition check happens at send time (the cut drops traffic).
        if self.group[from.0] != self.group[to.0] {
            self.stats.dropped_partitioned += 1;
            self.trace(TraceKind::DropPartitioned, from, to, label);
            return;
        }
        // Random loss.
        if self.config.drop_probability > 0.0
            && self.net_rng.gen_range(0.0..1.0) < self.config.drop_probability
        {
            self.stats.dropped_loss += 1;
            self.trace(TraceKind::DropLoss, from, to, label);
            return;
        }
        let latency = self.config.latency.sample(&mut self.net_rng) + self.perturbation[to.0];
        let deliver_at = self.now + latency;
        // Duplication.
        let duplicate = self.config.duplicate_probability > 0.0
            && self.net_rng.gen_range(0.0..1.0) < self.config.duplicate_probability;
        if duplicate {
            let extra_latency =
                self.config.latency.sample(&mut self.net_rng) + self.perturbation[to.0];
            let dup_at = self.now + extra_latency;
            self.stats.duplicated += 1;
            self.trace(TraceKind::Duplicate, from, to, label);
            let shared = Rc::new(msg);
            self.push_event(
                dup_at,
                EventKind::Deliver { from, to, msg: MsgSlot::Shared(shared.clone()), duplicate: true },
            );
            self.push_event(
                deliver_at,
                EventKind::Deliver { from, to, msg: MsgSlot::Shared(shared), duplicate: false },
            );
        } else {
            self.push_event(
                deliver_at,
                EventKind::Deliver { from, to, msg: MsgSlot::Owned(msg), duplicate: false },
            );
        }
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind<P::Message>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, slot: MsgSlot<P::Message>, _duplicate: bool) {
        // Crash check happens at delivery time: a node that crashed while
        // the message was in flight never sees it.
        if self.crashed[to.0] {
            self.stats.dropped_crashed += 1;
            let label = self.label(slot.get());
            self.trace(TraceKind::DropCrashed, from, to, label);
            return;
        }
        self.stats.delivered += 1;
        self.stats.received_per_node[to.0] += 1;
        let label = self.label(slot.get());
        self.trace(TraceKind::Deliver, from, to, label);
        let msg = slot.take();
        self.with_node(to, |node, ctx| node.on_message(from, msg, ctx));
    }

    /// Run `f` with the node checked out and a context wired up, then apply
    /// the context's buffered sends and timer requests.
    fn with_node(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut dyn Context<P::Message>),
    ) {
        let mut node = self.nodes[id.0].take().expect("re-entrant node execution");
        let mut ctx = NodeCtx {
            now: self.now,
            id,
            node_count: self.nodes.len(),
            rng: &mut self.node_rngs[id.0],
            outbox: Vec::new(),
            timer_requests: Vec::new(),
        };
        f(&mut node, &mut ctx);
        let NodeCtx { outbox, timer_requests, .. } = ctx;
        self.nodes[id.0] = Some(node);
        for (to, msg) in outbox {
            self.enqueue_send(id, to, msg);
        }
        for (delay, tag) in timer_requests {
            let at = self.now + delay;
            self.push_event(at, EventKind::Timer { node: id, tag });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floods a token to all peers on first receipt.
    struct Flood {
        seen: bool,
    }

    impl Protocol for Flood {
        type Message = u32;
        fn on_message(&mut self, _from: NodeId, msg: u32, ctx: &mut dyn Context<u32>) {
            if self.seen {
                return;
            }
            self.seen = true;
            let me = ctx.self_id();
            for i in 0..ctx.node_count() {
                if i != me.0 {
                    ctx.send(NodeId(i), msg);
                }
            }
        }
    }

    fn flood_net(n: usize, config: SimConfig) -> (SimNet<Flood>, Vec<NodeId>) {
        let mut net = SimNet::new(config);
        let ids = net.add_nodes(n, |_| Flood { seen: false });
        (net, ids)
    }

    #[test]
    fn flood_reaches_everyone() {
        let (mut net, ids) = flood_net(10, SimConfig::default().seed(1));
        net.send_external(ids[0], ids[0], 7);
        net.run_to_quiescence();
        for id in &ids {
            assert!(net.node(*id).seen, "{id} not reached");
        }
        // 1 external + 9 sends per infected node... at least n-1 deliveries
        assert!(net.stats().delivered >= 10);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let (mut net, ids) = flood_net(20, SimConfig::default().seed(seed).drop_probability(0.05));
            net.send_external(ids[0], ids[0], 1);
            net.run_to_quiescence();
            (net.stats().clone(), net.now())
        };
        let (s1, t1) = run(33);
        let (s2, t2) = run(33);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        let (_, t3) = run(34);
        assert_ne!(t1, t3, "different seeds should produce different latency draws");
    }

    #[test]
    fn crashed_nodes_receive_nothing() {
        let (mut net, ids) = flood_net(5, SimConfig::default().seed(2));
        net.crash(ids[4]);
        net.send_external(ids[0], ids[0], 1);
        net.run_to_quiescence();
        assert!(!net.node(ids[4]).seen);
        assert!(net.stats().dropped_crashed > 0);
    }

    #[test]
    fn partition_blocks_cross_traffic() {
        let (mut net, ids) = flood_net(6, SimConfig::default().seed(3));
        net.isolate(&[ids[3], ids[4], ids[5]]);
        net.send_external(ids[0], ids[0], 1);
        net.run_to_quiescence();
        assert!(net.node(ids[1]).seen && net.node(ids[2]).seen);
        assert!(!net.node(ids[3]).seen && !net.node(ids[4]).seen);
        assert!(net.stats().dropped_partitioned > 0);

        // After healing, a new token crosses.
        net.heal();
        net.node_mut(ids[0]).seen = false;
        net.node_mut(ids[1]).seen = false;
        net.node_mut(ids[2]).seen = false;
        net.send_external(ids[0], ids[0], 2);
        net.run_to_quiescence();
        assert!(net.node(ids[5]).seen);
    }

    #[test]
    fn full_loss_delivers_nothing() {
        let (mut net, ids) = flood_net(4, SimConfig::default().seed(4).drop_probability(1.0));
        net.send_external(ids[0], ids[1], 1);
        net.run_to_quiescence();
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().dropped_loss, 1);
    }

    #[test]
    fn duplication_counts() {
        let (mut net, ids) = flood_net(2, SimConfig::default().seed(5).duplicate_probability(1.0));
        net.send_external(ids[0], ids[1], 1);
        net.run_to_quiescence();
        assert!(net.stats().duplicated >= 1);
        assert!(net.stats().delivered >= 2);
    }

    #[test]
    fn virtual_time_advances_monotonically() {
        let (mut net, ids) = flood_net(10, SimConfig::default().seed(6));
        net.send_external(ids[0], ids[0], 1);
        let mut last = SimTime::ZERO;
        while let Some(t) = net.step() {
            assert!(t >= last);
            last = t;
        }
        assert!(last > SimTime::ZERO);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut net, ids) = flood_net(10, SimConfig::default().seed(7));
        net.send_external(ids[0], ids[0], 1);
        net.run_until(SimTime::from_micros(1));
        assert_eq!(net.now(), SimTime::from_micros(1));
        // With >= 1ms latency nothing can have been delivered yet.
        assert_eq!(net.stats().delivered, 0);
        assert!(!net.queue.is_empty());
    }

    #[test]
    fn multiway_partition_isolates_groups() {
        let (mut net, ids) = flood_net(9, SimConfig::default().seed(20));
        // Three groups of three.
        net.partition(&[&ids[0..3], &ids[3..6], &ids[6..9]]);
        net.send_external(ids[0], ids[0], 1);
        net.run_to_quiescence();
        for id in &ids[0..3] {
            assert!(net.node(*id).seen, "own group reached");
        }
        for id in &ids[3..9] {
            assert!(!net.node(*id).seen, "other groups dark");
        }
        // Seed group 2 separately: flows within but not across.
        net.send_external(ids[3], ids[3], 2);
        net.run_to_quiescence();
        assert!(net.node(ids[4]).seen && net.node(ids[5]).seen);
        assert!(!net.node(ids[6]).seen);
    }

    struct TimerBeat {
        fired: u32,
    }

    impl Protocol for TimerBeat {
        type Message = ();
        fn on_start(&mut self, ctx: &mut dyn Context<()>) {
            ctx.set_timer(SimDuration::from_millis(10), TimerTag(1));
        }
        fn on_message(&mut self, _: NodeId, _: (), _: &mut dyn Context<()>) {}
        fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<()>) {
            assert_eq!(tag, TimerTag(1));
            self.fired += 1;
            if self.fired < 3 {
                ctx.set_timer(SimDuration::from_millis(10), TimerTag(1));
            }
        }
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut net = SimNet::new(SimConfig::default().seed(8));
        let id = net.add_node(TimerBeat { fired: 0 });
        net.start();
        net.run_to_quiescence();
        assert_eq!(net.node(id).fired, 3);
        assert_eq!(net.now(), SimTime::from_millis(30));
        assert_eq!(net.stats().timers_fired, 3);
    }

    #[test]
    fn crashed_node_timers_do_not_fire() {
        let mut net = SimNet::new(SimConfig::default().seed(9));
        let id = net.add_node(TimerBeat { fired: 0 });
        net.start();
        net.crash(id);
        net.run_to_quiescence();
        assert_eq!(net.node(id).fired, 0);
    }

    #[test]
    fn perturbation_delays_delivery() {
        let config = SimConfig::default().seed(10).latency(LatencyModel::constant_millis(1));
        let mut fast = SimNet::new(config.clone());
        let f0 = fast.add_node(Flood { seen: false });
        let f1 = fast.add_node(Flood { seen: false });
        let _ = f0;
        fast.send_external(f0, f1, 1);
        fast.run_to_quiescence();
        let fast_time = fast.now();

        let mut slow = SimNet::new(config);
        let s0 = slow.add_node(Flood { seen: false });
        let s1 = slow.add_node(Flood { seen: false });
        slow.perturb(s1, SimDuration::from_millis(100));
        slow.send_external(s0, s1, 1);
        slow.run_to_quiescence();
        assert!(slow.now() > fast_time + SimDuration::from_millis(90));
    }

    #[test]
    fn tracer_sees_send_and_deliver() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let events: Rc<RefCell<Vec<TraceEvent>>> = Rc::default();
        let sink = events.clone();
        let (mut net, ids) = flood_net(2, SimConfig::default().seed(11));
        net.set_label_fn(Box::new(|m: &u32| format!("tok{m}")));
        net.set_tracer(Box::new(move |ev| sink.borrow_mut().push(ev.clone())));
        net.send_external(ids[0], ids[1], 9);
        net.run_to_quiescence();
        let evs = events.borrow();
        assert!(evs.iter().any(|e| e.kind == TraceKind::Send && e.label == "tok9"));
        assert!(evs.iter().any(|e| e.kind == TraceKind::Deliver));
    }

    #[test]
    fn byte_accounting_with_size_fn() {
        let (mut net, ids) = flood_net(2, SimConfig::default().seed(12));
        net.set_size_fn(Box::new(|_| 100));
        net.send_external(ids[0], ids[1], 1);
        net.run_to_quiescence();
        assert_eq!(net.stats().bytes_sent, net.stats().sent * 100);
    }

    #[test]
    fn max_events_backstop() {
        struct PingPong;
        impl Protocol for PingPong {
            type Message = ();
            fn on_message(&mut self, from: NodeId, _: (), ctx: &mut dyn Context<()>) {
                ctx.send(from, ()); // infinite ping-pong
            }
        }
        let mut config = SimConfig::default().seed(13);
        config.max_events = 1000;
        let mut net = SimNet::new(config);
        let a = net.add_node(PingPong);
        let b = net.add_node(PingPong);
        net.send_external(a, b, ());
        let processed = net.run_to_quiescence();
        assert_eq!(processed, 1000);
        assert!(!net.queue.is_empty());
    }
}
