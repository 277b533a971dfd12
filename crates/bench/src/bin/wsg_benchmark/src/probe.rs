//! The probe: measures an unmodified [`WsGossipNode`] from outside.
//!
//! A [`Probe`] is the `Protocol` the runtimes deploy. It forwards every
//! callback to the node it wraps, watches `ops()` grow to timestamp each
//! first delivery, and (on the initiator) drives publication through the
//! node's public `activate`/`notify` from its own timer. The context it
//! hands the node is a [`ProbeCtx`], so every `send` is seen. With
//! tracing on it also records spans; with tracing off that code is one
//! atomic load per callback.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ws_gossip::WsGossipNode;
use wsg_coord::GossipProtocol;
use wsg_net::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};
use wsg_net::{Context, NodeId, Protocol, Rng64, SimDuration, SimTime, TimerTag};

use crate::load::{ClosedLoop, OpenLoop, Payloads};
use crate::trace::Span;

/// The one topic every workload publishes on.
pub const TOPIC: &str = "bench";

/// The probe's own timer; distinct from the node's `COORD_SYNC_TICK`,
/// `PUBLISH_TICK` and `RENEW_TICK`.
pub const PROBE_TICK: TimerTag = TimerTag(0xBE7C_4001);

/// Node ids: coordinator, initiator, then the subscribers.
pub const COORDINATOR: NodeId = NodeId(0);
pub const INITIATOR: NodeId = NodeId(1);
pub const FIRST_SUBSCRIBER: usize = 2;

/// How often the initiator's probe looks at the shared state when it is
/// not sleeping towards a due time.
const TICK: SimDuration = SimDuration::from_micros(1_000);

/// A closed-loop slot frees when its publication completes. One whose
/// publication never completes (push gossip misses a pair now and then)
/// is reclaimed after this long — longer than a run, so within a run the
/// window strictly bounds what is outstanding and a starved publication
/// throttles the publisher.
pub const SLOT_LEAK_NS: u64 = 30_000_000_000;

/// What the main thread asks of the initiator's probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up: subscriptions are settling, nothing is published.
    Idle = 0,
    /// Activate the topic's coordination context.
    Activate = 1,
    /// Publish according to the workload's load shape.
    Publish = 2,
    /// Stop publishing; outstanding publications finish or expire.
    Drain = 3,
}

/// The load shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Publish on a schedule, whatever the fleet does.
    Open { rate_per_s: u64 },
    /// Keep `window` publications outstanding.
    Closed { window: usize },
}

/// One publication and who delivered it when.
#[derive(Debug, Clone)]
pub struct Publication {
    /// When it was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    /// When `notify` was called.
    pub sent_ns: u64,
    /// First delivery per subscriber index; 0 = not delivered.
    pub first_ns: Vec<u64>,
    /// Live subscribers that have not delivered yet.
    remaining: usize,
}

/// Everything known about publications, shared by all probes.
#[derive(Debug)]
pub struct Tracker {
    /// Publications by `seq`.
    pub pubs: Vec<Publication>,
    /// When each subscriber index was crashed, if it was.
    pub dead_since_ns: Vec<Option<u64>>,
    /// The closed-loop window, on closed-loop workloads.
    pub window: Option<ClosedLoop>,
    /// Publications some live subscriber has yet to deliver.
    pub incomplete: usize,
    /// Oracle violations seen while running.
    pub violations: Vec<String>,
}

impl Tracker {
    fn new(subscribers: usize, load: Load) -> Self {
        let window = match load {
            Load::Open { .. } => None,
            Load::Closed { window } => Some(ClosedLoop::new(window, SLOT_LEAK_NS)),
        };
        Tracker {
            pubs: Vec::new(),
            dead_since_ns: vec![None; subscribers],
            window,
            incomplete: 0,
            violations: Vec::new(),
        }
    }

    fn publish(&mut self, due_ns: u64, sent_ns: u64) -> u64 {
        let seq = self.pubs.len() as u64;
        let remaining = self.dead_since_ns.iter().filter(|d| d.is_none()).count();
        self.pubs.push(Publication {
            due_ns,
            sent_ns,
            first_ns: vec![0; self.dead_since_ns.len()],
            remaining,
        });
        self.incomplete += 1;
        if let Some(window) = &mut self.window {
            window.issue(seq, sent_ns);
        }
        seq
    }

    fn deliver(&mut self, seq: u64, subscriber: usize, at_ns: u64) {
        let Some(publication) = self.pubs.get_mut(seq as usize) else {
            self.violations.push(format!(
                "subscriber {subscriber} delivered unpublished seq {seq}"
            ));
            return;
        };
        if publication.first_ns[subscriber] != 0 {
            self.violations
                .push(format!("subscriber {subscriber} delivered seq {seq} twice"));
            return;
        }
        publication.first_ns[subscriber] = at_ns.max(1);
        if self.dead_since_ns[subscriber].is_none() {
            publication.remaining -= 1;
            if publication.remaining == 0 {
                self.finish(seq);
            }
        }
    }

    fn finish(&mut self, seq: u64) {
        self.incomplete -= 1;
        if let Some(window) = &mut self.window {
            window.complete(seq);
        }
    }

    /// `subscriber` was crashed at `at_ns`: nobody waits for it any more.
    pub fn mark_dead(&mut self, subscriber: usize, at_ns: u64) {
        if self.dead_since_ns[subscriber].replace(at_ns).is_some() {
            return;
        }
        let mut finished = Vec::new();
        for (seq, publication) in self.pubs.iter_mut().enumerate() {
            if publication.first_ns[subscriber] == 0 && publication.remaining > 0 {
                publication.remaining -= 1;
                if publication.remaining == 0 {
                    finished.push(seq as u64);
                }
            }
        }
        for seq in finished {
            self.finish(seq);
        }
    }
}

/// A `send` seen by a [`ProbeCtx`] while tracing, waiting for the
/// receiver's `on_message` to close the hop.
#[derive(Debug, Clone, Copy)]
struct SendRecord {
    at_ns: u64,
    parent: u64,
}

/// Envelopes captured off a live fleet for the stage replays.
#[derive(Debug, Clone, Default)]
pub struct Captured {
    /// A `RegisterResponse` as a subscriber received it (carries its grant).
    pub register_response: Option<String>,
    /// A notification as that subscriber first received it.
    pub notify: Option<String>,
    /// The `CreateCoordinationContextResponse` the initiator received.
    pub context_response: Option<String>,
}

/// State shared between the main thread and every probe of one fleet.
#[derive(Debug)]
pub struct Shared {
    epoch: Instant,
    phase: AtomicUsize,
    tracing: AtomicBool,
    publish_start_ns: AtomicU64,
    /// `subscriber_count(TOPIC)` as the coordinator last saw it.
    pub subscribed: AtomicUsize,
    /// Whether the initiator holds an active context for the topic.
    pub context_ready: AtomicBool,
    /// `on_message` calls at the coordinator's probe.
    pub coordinator_msgs: AtomicU64,
    /// `on_message` calls at every probe of the fleet.
    pub fleet_msgs: AtomicU64,
    /// Publications, deliveries and the closed-loop window.
    pub tracker: Mutex<Tracker>,
    sends: Mutex<BTreeMap<(usize, u128), SendRecord>>,
    capture: Option<Mutex<Captured>>,
}

impl Shared {
    /// Shared state for a fleet of `subscribers` under `load`; `capture`
    /// keeps the envelopes the stage replays need.
    pub fn new(subscribers: usize, load: Load, capture: bool) -> Arc<Self> {
        Arc::new(Shared {
            epoch: wsg_bench::timing::now(),
            phase: AtomicUsize::new(Phase::Idle as usize),
            tracing: AtomicBool::new(false),
            publish_start_ns: AtomicU64::new(0),
            subscribed: AtomicUsize::new(0),
            context_ready: AtomicBool::new(false),
            coordinator_msgs: AtomicU64::new(0),
            fleet_msgs: AtomicU64::new(0),
            tracker: Mutex::new(Tracker::new(subscribers, load)),
            sends: Mutex::new(BTreeMap::new()),
            capture: capture.then(|| Mutex::new(Captured::default())),
        })
    }

    /// Nanoseconds since this fleet's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Move the initiator's probe to `phase`.
    pub fn set_phase(&self, phase: Phase) {
        if phase == Phase::Publish {
            self.publish_start_ns.store(self.now_ns(), Ordering::SeqCst);
        }
        self.phase.store(phase as usize, Ordering::SeqCst);
    }

    fn phase(&self) -> Phase {
        match self.phase.load(Ordering::SeqCst) {
            1 => Phase::Activate,
            2 => Phase::Publish,
            3 => Phase::Drain,
            _ => Phase::Idle,
        }
    }

    /// Turn span recording on or off for every probe.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    fn tracing(&self) -> bool {
        self.tracing.load(Ordering::SeqCst)
    }

    /// The envelopes captured so far (empty unless capturing).
    pub fn captured(&self) -> Captured {
        self.capture
            .as_ref()
            .map(|c| c.lock().clone())
            .unwrap_or_default()
    }
}

/// The text between `open` and the next `<`, e.g. a header's value.
fn tag_text<'a>(xml: &'a str, open: &str) -> Option<&'a str> {
    let start = xml.find(open)? + open.len();
    let len = xml[start..].find('<')?;
    Some(&xml[start..start + len])
}

/// The envelope's `wsa:MessageID` as a number (its UUID's hex digits).
fn message_id(xml: &str) -> Option<u128> {
    let urn = tag_text(xml, "<wsa:MessageID>")?;
    let mut id = 0u128;
    for digit in urn
        .strip_prefix("urn:uuid:")?
        .chars()
        .filter_map(|c| c.to_digit(16))
    {
        id = (id << 4) | u128::from(digit);
    }
    Some(id)
}

/// The publication a gossiped envelope carries (`wsg:Seq`), or -1.
fn publication_of(xml: &str) -> i64 {
    tag_text(xml, "<wsg:Seq>")
        .and_then(|s| s.parse().ok())
        .unwrap_or(-1)
}

/// The next span id of `node`: unique across the fleet, node in the high
/// bits.
fn span_id(node: usize, issued: &mut u64) -> u64 {
    *issued += 1;
    ((node as u64 + 1) << 40) | *issued
}

/// What the wrapped node sees as its runtime: the real context, plus a
/// record of every `send` while tracing.
struct ProbeCtx<'a> {
    inner: &'a mut dyn Context<String>,
    shared: &'a Shared,
    node: usize,
    /// The span the sends are caused by; 0 = not tracing.
    parent: u64,
}

impl Context<String> for ProbeCtx<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn self_id(&self) -> NodeId {
        self.inner.self_id()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn send(&mut self, to: NodeId, msg: String) {
        if self.parent != 0 {
            if let Some(id) = message_id(&msg) {
                let record = SendRecord {
                    at_ns: self.shared.now_ns(),
                    parent: self.parent,
                };
                self.shared.sends.lock().insert((self.node, id), record);
            }
        }
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) {
        self.inner.set_timer(delay, tag);
    }
    fn rng(&mut self) -> &mut dyn Rng64 {
        self.inner.rng()
    }
}

/// The publishing side of the initiator's probe.
#[derive(Debug)]
struct Generator {
    load: Load,
    payloads: Payloads,
    schedule: Option<OpenLoop>,
    activated: bool,
}

/// An unmodified [`WsGossipNode`] with the benchmark's instruments on.
#[derive(Debug)]
pub struct Probe {
    inner: WsGossipNode,
    shared: Arc<Shared>,
    node: usize,
    generator: Option<Generator>,
    seen_ops: usize,
    /// Spans recorded while tracing was on.
    pub spans: Vec<Span>,
    next_span: u64,
}

impl Probe {
    /// Wrap `inner`, deployed as node `node`.
    pub fn new(inner: WsGossipNode, node: NodeId, shared: Arc<Shared>) -> Self {
        Probe {
            inner,
            shared,
            node: node.index(),
            generator: None,
            seen_ops: 0,
            spans: Vec::new(),
            next_span: 0,
        }
    }

    /// Make this probe (the initiator's) publish `payloads` under `load`.
    pub fn with_generator(mut self, load: Load, payloads: Payloads) -> Self {
        self.generator = Some(Generator {
            load,
            payloads,
            schedule: None,
            activated: false,
        });
        self
    }

    /// The wrapped node, for the oracle.
    pub fn node(&self) -> &WsGossipNode {
        &self.inner
    }

    fn span_id(&mut self) -> u64 {
        span_id(self.node, &mut self.next_span)
    }

    /// Publish one notification that was due at `due_ns`.
    fn publish(&mut self, due_ns: u64, ctx: &mut dyn Context<String>) {
        let Some(generator) = &self.generator else {
            return;
        };
        let sent_ns = self.shared.now_ns();
        let seq = self.shared.tracker.lock().publish(due_ns, sent_ns);
        let payload = generator.payloads.element(seq);
        let span = if self.shared.tracing() {
            self.span_id()
        } else {
            0
        };
        let start_ns = self.shared.now_ns();
        let mut ctx = ProbeCtx {
            inner: ctx,
            shared: &self.shared,
            node: self.node,
            parent: span,
        };
        self.inner.notify(TOPIC, payload, &mut ctx);
        if span != 0 {
            self.spans.push(Span {
                trace: seq as i64,
                span,
                parent: 0,
                name: "publish",
                tag: "",
                round: 0,
                node: self.node,
                start_ns,
                end_ns: self.shared.now_ns(),
            });
        }
    }

    /// One look at the shared state from the initiator's timer.
    fn tick(&mut self, ctx: &mut dyn Context<String>) {
        let now_ns = self.shared.now_ns();
        let phase = self.shared.phase();
        let mut delay = TICK;
        let Some(generator) = &mut self.generator else {
            return;
        };
        match (phase, generator.load) {
            (Phase::Idle, _) => {}
            (Phase::Activate, _) => {
                if !generator.activated {
                    generator.activated = true;
                    let mut ctx = ProbeCtx {
                        inner: ctx,
                        shared: &self.shared,
                        node: self.node,
                        parent: 0,
                    };
                    self.inner.activate(GossipProtocol::Push, TOPIC, &mut ctx);
                }
            }
            (Phase::Publish, Load::Open { rate_per_s }) => {
                let start_ns = self.shared.publish_start_ns.load(Ordering::SeqCst);
                let schedule = generator
                    .schedule
                    .get_or_insert_with(|| OpenLoop::new(start_ns, rate_per_s));
                let due = schedule.take_due(now_ns);
                let next_due_ns = schedule.next_due_ns();
                for due_ns in due {
                    self.publish(due_ns, ctx);
                }
                // Sleep to the next due time, not past a phase change.
                let wait = next_due_ns.saturating_sub(self.shared.now_ns()) / 1_000;
                delay = SimDuration::from_micros(wait.min(50_000));
            }
            (Phase::Publish, Load::Closed { .. }) => loop {
                let free = {
                    let mut tracker = self.shared.tracker.lock();
                    tracker.window.as_mut().is_some_and(|window| {
                        window.expire(now_ns);
                        window.free() > 0
                    })
                };
                if !free {
                    break;
                }
                self.publish(self.shared.now_ns(), ctx);
            },
            (Phase::Drain, _) => {
                if let Some(window) = &mut self.shared.tracker.lock().window {
                    window.expire(now_ns);
                }
            }
        }
        ctx.set_timer(delay, PROBE_TICK);
    }

    /// Timestamp the deliveries the last callback added to `ops()`.
    fn note_deliveries(&mut self, handle: u64) {
        let ops = self.inner.ops();
        if ops.len() == self.seen_ops {
            return;
        }
        let at_ns = self.shared.now_ns();
        let Some(subscriber) = self.node.checked_sub(FIRST_SUBSCRIBER) else {
            return;
        };
        let mut tracker = self.shared.tracker.lock();
        for op in &ops[self.seen_ops..] {
            tracker.deliver(op.seq, subscriber, at_ns);
            if handle != 0 {
                self.spans.push(Span {
                    trace: op.seq as i64,
                    span: span_id(self.node, &mut self.next_span),
                    parent: handle,
                    name: "deliver",
                    tag: "",
                    round: op.round,
                    node: self.node,
                    start_ns: at_ns,
                    end_ns: at_ns,
                });
            }
        }
        self.seen_ops = ops.len();
    }

    /// Keep the initiator's context, and the first subscriber's grant
    /// and first new notification, for the stage replays.
    fn capture(&self, msg: &str, was_new: bool) {
        let Some(capture) = &self.shared.capture else {
            return;
        };
        let keep = |slot: &mut Option<String>, action: &str| {
            if slot.is_none() && msg.contains(action) {
                *slot = Some(msg.to_string());
            }
        };
        let mut captured = capture.lock();
        if self.node == INITIATOR.index() {
            keep(
                &mut captured.context_response,
                ":CreateCoordinationContextResponse</wsa:Action>",
            );
        }
        if self.node == FIRST_SUBSCRIBER {
            keep(
                &mut captured.register_response,
                ":RegisterResponse</wsa:Action>",
            );
            if was_new {
                keep(&mut captured.notify, ":Notify</wsa:Action>");
            }
        }
    }
}

impl Protocol for Probe {
    type Message = String;

    fn on_start(&mut self, ctx: &mut dyn Context<String>) {
        let mut probe_ctx = ProbeCtx {
            inner: &mut *ctx,
            shared: &self.shared,
            node: self.node,
            parent: 0,
        };
        self.inner.on_start(&mut probe_ctx);
        if self.generator.is_some() {
            ctx.set_timer(TICK, PROBE_TICK);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut dyn Context<String>) {
        self.shared.fleet_msgs.fetch_add(1, Ordering::SeqCst);
        if self.node == COORDINATOR.index() {
            self.shared.coordinator_msgs.fetch_add(1, Ordering::SeqCst);
        }
        let kept = self.shared.capture.is_some().then(|| msg.clone());

        // While tracing, close the hop that brought this message and open
        // the span that handles it.
        let mut handle = 0;
        if self.shared.tracing() {
            let start_ns = self.shared.now_ns();
            let trace = publication_of(&msg);
            let sent = message_id(&msg)
                .and_then(|id| self.shared.sends.lock().remove(&(from.index(), id)));
            let mut parent = 0;
            if let Some(sent) = sent {
                parent = self.span_id();
                self.spans.push(Span {
                    trace,
                    span: parent,
                    parent: sent.parent,
                    name: "hop",
                    tag: "",
                    round: 0,
                    node: self.node,
                    start_ns: sent.at_ns,
                    end_ns: start_ns,
                });
            }
            handle = self.span_id();
            self.spans.push(Span {
                trace,
                span: handle,
                parent,
                name: "handle",
                tag: "",
                round: 0,
                node: self.node,
                start_ns,
                end_ns: start_ns,
            });
        }

        let duplicates =
            |node: &WsGossipNode| node.layer_stats().map_or(0, |s| s.duplicates_suppressed);
        let dups_before = if handle != 0 {
            duplicates(&self.inner)
        } else {
            0
        };
        let mut probe_ctx = ProbeCtx {
            inner: &mut *ctx,
            shared: &self.shared,
            node: self.node,
            parent: handle,
        };
        self.inner.on_message(from, msg, &mut probe_ctx);
        let was_new = self.inner.ops().len() > self.seen_ops;

        if handle != 0 {
            let dups = duplicates(&self.inner);
            let end_ns = self.shared.now_ns();
            if let Some(span) = self.spans.last_mut() {
                span.end_ns = end_ns;
                span.tag = if was_new {
                    "new"
                } else if dups > dups_before {
                    "dup"
                } else {
                    "control"
                };
            }
        }
        self.note_deliveries(handle);
        if let Some(kept) = kept {
            self.capture(&kept, was_new);
        }
        if self.node == COORDINATOR.index() {
            let subscribed = self.inner.subscriber_count(TOPIC, ctx.now());
            self.shared.subscribed.store(subscribed, Ordering::SeqCst);
        }
        if self.generator.is_some() && self.inner.context_for(TOPIC).is_some() {
            self.shared.context_ready.store(true, Ordering::SeqCst);
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<String>) {
        if tag == PROBE_TICK {
            self.tick(ctx);
            return;
        }
        let mut probe_ctx = ProbeCtx {
            inner: ctx,
            shared: &self.shared,
            node: self.node,
            parent: 0,
        };
        self.inner.on_timer(tag, &mut probe_ctx);
        self.note_deliveries(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields_are_read_off_the_wire_text() {
        let xml = "<env:Header><wsa:MessageID>urn:uuid:00000000-0000-0000-0000-0000000000ff\
                   </wsa:MessageID><wsg:Seq>41</wsg:Seq></env:Header>";
        assert_eq!(message_id(xml), Some(0xff));
        assert_eq!(publication_of(xml), 41);
        assert_eq!(publication_of("<env:Body/>"), -1);
        assert_eq!(message_id("<wsa:MessageID>not-a-urn</wsa:MessageID>"), None);
    }

    #[test]
    fn tracker_completes_publications_and_frees_closed_loop_slots() {
        let mut tracker = Tracker::new(2, Load::Closed { window: 2 });
        let a = tracker.publish(10, 10);
        let b = tracker.publish(11, 11);
        assert_eq!(tracker.window.as_ref().map(ClosedLoop::free), Some(0));
        tracker.deliver(a, 0, 20);
        assert_eq!(tracker.incomplete, 2);
        tracker.deliver(a, 1, 21);
        assert_eq!(tracker.incomplete, 1);
        assert_eq!(tracker.window.as_ref().map(ClosedLoop::free), Some(1));
        // A crash stops the wait for the crashed subscriber.
        tracker.deliver(b, 0, 30);
        tracker.mark_dead(1, 31);
        assert_eq!(tracker.incomplete, 0);
        assert!(tracker.violations.is_empty());
        tracker.deliver(b, 0, 32);
        tracker.deliver(9, 0, 33);
        assert_eq!(tracker.violations.len(), 2, "{:?}", tracker.violations);
    }
}
