//! Per-destination outbound queues and the drain policy behind wire-level
//! envelope coalescing (see DESIGN.md §12).
//!
//! A node's `ctx.send` calls land in a `SenderQueues` — one FIFO per
//! destination — and the sender thread drains *everything* queued for a
//! peer into a single `urn:ws-gossip:batch` POST (capped by
//! [`BatchConfig`]). Because the queues are shared, other producers can
//! ride along: `wsg_cluster` heartbeats use [`OutboundHandle::piggyback`]
//! to append to a queue that already has traffic instead of opening their
//! own request.
//!
//! Flush-on-idle is implicit in the wakeup protocol: every push sends a
//! wake token, and the sender drains on each one, so under light load a
//! message is posted alone immediately — a batch of one, front-coded
//! against the last message its keep-alive connection carried, so it costs
//! about what a message inside a batch does. Several messages share a POST
//! only while the sender is busy posting — exactly when coalescing pays.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;

use wsg_net::protocol::NodeId;
use wsg_net::sync::{AtomicBool, Mutex, Notify, Ordering};

/// Drain-policy knobs for the sender thread's per-peer batches.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Most messages coalesced into one POST. `1` means one message per
    /// POST — still a one-`Msg` batch, coded against the connection; `0`
    /// is treated as `1`.
    pub max_batch_msgs: usize,
    /// Soft cap on summed inner-envelope bytes per POST: a batch stops
    /// growing before the message that would cross it. The first message
    /// always goes, whatever its size.
    pub max_batch_bytes: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch_msgs: 16, max_batch_bytes: 256 * 1024 }
    }
}

/// One queued outbound message: serialised envelope XML plus the route it
/// dispatches to on the receiver (`None` = the gossip inbox).
///
/// The XML is a prefix of `shared`, then `own`, then a suffix of `shared`.
/// A gossip node hands the sender `f` copies of each notification that
/// differ in a few dozen header bytes (`To`, `MessageID`), and under load
/// tens of thousands of messages wait here at once — so a message that
/// mostly repeats the one queued before it keeps only the bytes of its own
/// and shares that message's for the rest (see [`SenderQueues::push`]).
#[derive(Debug)]
pub(crate) struct QueuedMsg {
    pub(crate) target: Option<String>,
    own: String,
    shared: Arc<String>,
    // This message is `shared[..prefix]` + `own` + `shared[suffix_from..]`.
    prefix: usize,
    suffix_from: usize,
}

impl QueuedMsg {
    /// A message owning all of its bytes.
    fn whole(target: Option<String>, xml: Arc<String>) -> Self {
        QueuedMsg { target, own: String::new(), shared: xml, prefix: 0, suffix_from: 0 }
    }

    /// The XML in its three pieces, in order.
    pub(crate) fn parts(&self) -> [&str; 3] {
        [&self.shared[..self.prefix], &self.own, &self.shared[self.suffix_from..]]
    }

    /// Length of the XML in bytes.
    pub(crate) fn len(&self) -> usize {
        self.parts().iter().map(|part| part.len()).sum()
    }
}

/// How many leading and (of what is left) trailing bytes `a` and `b` have
/// in common, each cut back to a character boundary.
fn common_ends(a: &str, b: &str) -> (usize, usize) {
    /// Bytes in the leading run of equal chunk pairs: whole 64-byte
    /// blocks first (slice equality is a memcmp), single bytes to finish.
    fn equal_run<'a>(pairs: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> usize {
        pairs.take_while(|(p, q)| p == q).map(|(p, _)| p.len()).sum()
    }
    let (x, y) = (a.as_bytes(), b.as_bytes());
    let mut prefix = equal_run(x.chunks(64).zip(y.chunks(64)));
    prefix += equal_run(x[prefix..].chunks(1).zip(y[prefix..].chunks(1)));
    while !a.is_char_boundary(prefix) {
        prefix -= 1;
    }
    let (x, y) = (&x[prefix..], &y[prefix..]);
    let mut suffix = equal_run(x.rchunks(64).zip(y.rchunks(64)));
    let (x, y) = (&x[..x.len() - suffix], &y[..y.len() - suffix]);
    suffix += equal_run(x.rchunks(1).zip(y.rchunks(1)));
    while !a.is_char_boundary(a.len() - suffix) {
        suffix -= 1;
    }
    (prefix, suffix)
}

/// The sender thread's wakeup latch: a coalescing wake token plus a
/// sticky stopping flag, replacing a counted command channel. Any number
/// of pushes while the sender is busy posting collapse into one token —
/// the sender drains *queues*, not wake messages, so tokens carry no
/// payload and need no buffering.
///
/// Protocol (model-checked exhaustively under `--cfg wsg_model`, see the
/// `model_tests` module): producers push *then* wake; `stop` sets the
/// flag *then* wakes. [`sender_loop`] reads the flag *before* draining, so
/// every message queued before `stop()` is covered by the final drain —
/// no envelope is stranded and no wakeup lost.
#[derive(Default)]
pub(crate) struct WakeSignal {
    notify: Notify,
    stopping: AtomicBool,
}

impl WakeSignal {
    /// Producer side: there may be work — wake the sender (idempotent).
    pub(crate) fn wake(&self) {
        self.notify.notify_one();
    }

    /// The node loop ended: have the sender drain what is queued, then
    /// exit. Sticky; the ordering pairs with [`WakeSignal::stopping`].
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        self.notify.notify_one();
    }

    /// Sender side: park until a wake token arrives.
    pub(crate) fn wait(&self) {
        self.notify.wait();
    }

    /// Sender side: whether `stop` was requested. Read *before* the
    /// drain that follows a [`WakeSignal::wait`] so the final drain sees
    /// everything queued before the stop.
    pub(crate) fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }
}

/// Callback invoked with the address of a peer whose POST was
/// connection-refused after all retries.
type UnreachableHook = Arc<dyn Fn(SocketAddr) + Send + Sync>;

/// The shared per-destination FIFO queues one sender thread drains.
///
/// Shared between the node loop (its `ctx.send`s), the sender thread, and
/// any piggybacking producer holding an [`OutboundHandle`].
#[derive(Default)]
pub(crate) struct SenderQueues {
    queues: Mutex<Queued>,
    /// Called by the sender thread on exhausted connection-refused POSTs —
    /// `wsg_cluster` wires this to `MembershipPlane::note_unreachable` so
    /// gossip traffic feeds the failure detector too.
    unreachable_hook: Mutex<Option<UnreachableHook>>,
}

#[derive(Default)]
struct Queued {
    by_peer: BTreeMap<NodeId, VecDeque<QueuedMsg>>,
    // The last message pushed whole: what the next one may share bytes
    // with.
    last_whole: Option<Arc<String>>,
}

impl SenderQueues {
    /// Append for `to`, unconditionally. When at least three quarters of
    /// `xml` repeat the start and end of the last message queued whole (a
    /// forward of the same notification to another peer), only the
    /// differing middle is kept and the rest shared; anything else is
    /// queued whole. (Half is not enough to tell: the *next* notification
    /// of the conversation repeats the ~950 bytes of header that come
    /// before `wsg:Seq`, two thirds of a small message — and had better go
    /// whole, for its own copies to share all but ~100 bytes with.)
    pub(crate) fn push(&self, to: NodeId, target: Option<String>, xml: String) {
        let mut queued = self.queues.lock();
        let (mut prefix, mut suffix) =
            queued.last_whole.as_ref().map_or((0, 0), |last| common_ends(last, &xml));
        let prologue = wsg_soap::batch::prologue_len(&xml);
        if prefix < prologue {
            // The batch writer strips an XML declaration from a message's
            // first piece: a declaration not shared whole stays whole in
            // `own`.
            prefix = 0;
            suffix = suffix.min(xml.len() - prologue);
        }
        let msg = match &queued.last_whole {
            Some(last) if (prefix + suffix) * 4 >= xml.len() * 3 && suffix > 0 => {
                // A fresh small string, not `xml` cut down in place: the
                // big block goes back whole, for the next copy to reuse,
                // instead of being pinned by what is left at its start.
                let own = xml[prefix..xml.len() - suffix].to_string();
                let (shared, suffix_from) = (Arc::clone(last), last.len() - suffix);
                QueuedMsg { target, own, shared, prefix, suffix_from }
            }
            _ => {
                let xml = Arc::new(xml);
                queued.last_whole = Some(Arc::clone(&xml));
                QueuedMsg::whole(target, xml)
            }
        };
        queued.by_peer.entry(to).or_default().push_back(msg);
    }

    /// Append for `to` only if traffic is already queued there (the clone
    /// happens only on success). Returns whether the message was queued.
    pub(crate) fn piggyback(&self, to: NodeId, target: &str, xml: &str) -> bool {
        let mut queued = self.queues.lock();
        match queued.by_peer.get_mut(&to) {
            Some(queue) if !queue.is_empty() => {
                let xml = Arc::new(xml.to_string());
                queue.push_back(QueuedMsg::whole(Some(target.to_string()), xml));
                true
            }
            _ => false,
        }
    }

    /// Take the next batch: the first (ascending id) non-empty peer's
    /// queue, drained FIFO up to the caps. [`None`] when everything is
    /// empty. Emptied queues are dropped so the map stays bounded by the
    /// live fan-out, not fleet history.
    pub(crate) fn pop_batch(&self, config: &BatchConfig) -> Option<(NodeId, Vec<QueuedMsg>)> {
        let queues = &mut self.queues.lock().by_peer;
        let to = queues.iter().find(|(_, q)| !q.is_empty()).map(|(id, _)| *id)?;
        let mut batch = Vec::new();
        let mut bytes = 0usize;
        if let Some(queue) = queues.get_mut(&to) {
            while let Some(front) = queue.front() {
                if !batch.is_empty()
                    && (batch.len() >= config.max_batch_msgs.max(1)
                        || bytes + front.len() > config.max_batch_bytes)
                {
                    break;
                }
                bytes += front.len();
                match queue.pop_front() {
                    Some(msg) => batch.push(msg),
                    None => break,
                }
            }
            if queue.is_empty() {
                queues.remove(&to);
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some((to, batch))
        }
    }

    pub(crate) fn set_unreachable_hook(&self, hook: Arc<dyn Fn(SocketAddr) + Send + Sync>) {
        *self.unreachable_hook.lock() = Some(hook);
    }

    pub(crate) fn notify_unreachable(&self, addr: SocketAddr) {
        let hook = self.unreachable_hook.lock().clone();
        if let Some(hook) = hook {
            hook(addr);
        }
    }
}

/// The sender thread's whole protocol: park until woken, read the stop
/// flag, hand every queued batch to `post`, exit once stopping.
///
/// Wakes coalesce in the signal's single token: while `post` was busy
/// with the last drain, producers kept queueing — one pass covers them
/// all, and that backlog is exactly what forms multi-message batches.
/// Under light load the queue holds a single envelope and it is flushed
/// immediately (flush-on-idle).
///
/// The stop flag is read *before* draining (not after): everything
/// queued before `stop()` is then covered by this drain, so no envelope
/// is stranded. `model_tests` drives this very function through every
/// interleaving within its bounds.
pub(crate) fn sender_loop(
    signal: &WakeSignal,
    queues: &SenderQueues,
    config: &BatchConfig,
    mut post: impl FnMut(NodeId, Vec<QueuedMsg>),
) {
    loop {
        signal.wait();
        let stopping = signal.stopping();
        while let Some((to, batch)) = queues.pop_batch(config) {
            post(to, batch);
        }
        if stopping {
            return;
        }
    }
}

/// A producer-side handle on one node's outbound path: shared queues plus
/// the sender thread's wakeup latch.
///
/// Cloneable and cheap; obtained from `NetRuntime::outbound_of`. Dropping
/// handles never blocks shutdown — the sender thread exits on an explicit
/// stop flag from the node loop, never on handle count.
#[derive(Clone)]
pub struct OutboundHandle {
    queues: Arc<SenderQueues>,
    wake: Arc<WakeSignal>,
}

impl OutboundHandle {
    pub(crate) fn new(queues: Arc<SenderQueues>, wake: Arc<WakeSignal>) -> Self {
        OutboundHandle { queues, wake }
    }

    /// Queue a gossip envelope for `to` and wake the sender.
    pub(crate) fn send(&self, to: NodeId, xml: String) {
        self.queues.push(to, None, xml);
        self.wake.wake();
    }

    /// Append `xml` behind traffic already queued for `to`, to be
    /// dispatched at route `target` on the receiver. Returns `false` (and
    /// queues nothing) when no batch is forming for that peer — the caller
    /// should fall back to its own POST. Never strands a message: a
    /// successful piggyback wakes the sender like any other push.
    pub fn piggyback(&self, to: NodeId, target: &str, xml: &str) -> bool {
        if self.queues.piggyback(to, target, xml) {
            self.wake.wake();
            true
        } else {
            false
        }
    }

    /// Report connection-refused peers (after retries) to `hook`. One hook
    /// per node; setting replaces the previous one.
    pub fn set_unreachable_hook(&self, hook: Arc<dyn Fn(SocketAddr) + Send + Sync>) {
        self.queues.set_unreachable_hook(hook);
    }

    /// Tell the sender thread to drain what is queued and exit.
    pub(crate) fn stop(&self) {
        self.wake.stop();
    }
}

/// Exhaustive model checks of the wake-token protocol (ISSUE 9): under
/// `RUSTFLAGS="--cfg wsg_model"` the explorer drives every interleaving
/// of producers, the sender loop, and `stop()` within the preemption
/// bound. A lost wakeup surfaces as a model deadlock (the sender parked
/// with no token left to come); a stranded envelope fails the final
/// drain assertion.
#[cfg(all(test, wsg_model))]
mod model_tests {
    use super::*;
    use wsg_model::{thread, Explorer};

    /// The production [`sender_loop`] on a model thread, with the HTTP
    /// posting step swapped for collecting the drained envelopes.
    fn spawn_sender(
        queues: Arc<SenderQueues>,
        signal: Arc<WakeSignal>,
    ) -> thread::JoinHandle<Vec<String>> {
        thread::spawn(move || {
            let mut drained = Vec::new();
            sender_loop(&signal, &queues, &BatchConfig::default(), |_, batch| {
                drained.extend(batch.iter().map(|m| m.parts().concat()));
            });
            drained
        })
    }

    #[test]
    fn wake_token_protocol_loses_no_envelope() {
        let outcome = Explorer::new()
            .preemption_bound(3)
            .max_schedules(500_000)
            .samples(16)
            .explore(|| {
                let queues = Arc::new(SenderQueues::default());
                let signal = Arc::new(WakeSignal::default());
                let out = OutboundHandle::new(Arc::clone(&queues), Arc::clone(&signal));
                let sender = spawn_sender(Arc::clone(&queues), Arc::clone(&signal));
                out.send(NodeId(1), "<m>0</m>".to_string());
                out.send(NodeId(2), "<m>1</m>".to_string());
                out.stop();
                let drained = sender.join().unwrap();
                assert_eq!(
                    drained.len(),
                    2,
                    "an envelope was stranded or duplicated: {drained:?}"
                );
                assert!(
                    queues.pop_batch(&BatchConfig::default()).is_none(),
                    "queues must be empty once the sender exits"
                );
            });
        assert!(
            outcome.failure.is_none(),
            "lost wakeup or stranded envelope:\n{}",
            outcome.failure.map(|f| f.report()).unwrap_or_default()
        );
        assert!(
            outcome.exhausted,
            "the wake-token fixture must be explored exhaustively at bound 3 \
             ({} schedules run)",
            outcome.schedules
        );
    }

    #[test]
    fn piggyback_never_strands_behind_a_concurrent_drain() {
        // A piggybacking producer races the sender's drain: whenever
        // `piggyback` reports true, its message must come out of the
        // final drain — under every interleaving within the bound.
        let outcome = Explorer::new()
            .preemption_bound(2)
            .max_schedules(500_000)
            .samples(16)
            .explore(|| {
                let queues = Arc::new(SenderQueues::default());
                let signal = Arc::new(WakeSignal::default());
                let out = OutboundHandle::new(Arc::clone(&queues), Arc::clone(&signal));
                let sender = spawn_sender(Arc::clone(&queues), Arc::clone(&signal));
                let rider = {
                    let out = out.clone();
                    thread::spawn(move || out.piggyback(NodeId(1), "/membership", "<hb/>"))
                };
                out.send(NodeId(1), "<m>0</m>".to_string());
                let rode_along = rider.join().unwrap();
                out.stop();
                let drained = sender.join().unwrap();
                assert_eq!(
                    drained.len(),
                    1 + usize::from(rode_along),
                    "a successful piggyback must never be stranded: {drained:?}"
                );
                assert!(queues.pop_batch(&BatchConfig::default()).is_none());
            });
        assert!(
            outcome.failure.is_none(),
            "piggyback raced the drain into a lost message:\n{}",
            outcome.failure.map(|f| f.report()).unwrap_or_default()
        );
        assert!(outcome.exhausted, "({} schedules run)", outcome.schedules);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(n: usize) -> String {
        format!("<m>{n}</m>")
    }

    #[test]
    fn drains_fifo_per_peer_in_ascending_id_order() {
        let queues = SenderQueues::default();
        queues.push(NodeId(7), None, msg(1));
        queues.push(NodeId(2), None, msg(2));
        queues.push(NodeId(7), None, msg(3));
        let config = BatchConfig::default();
        let (to, batch) = queues.pop_batch(&config).unwrap();
        assert_eq!(to, NodeId(2));
        assert_eq!(batch.len(), 1);
        let (to, batch) = queues.pop_batch(&config).unwrap();
        assert_eq!(to, NodeId(7));
        assert_eq!(
            batch.iter().map(|m| m.parts().concat()).collect::<Vec<_>>(),
            vec![msg(1), msg(3)]
        );
        assert!(queues.pop_batch(&config).is_none());
    }

    #[test]
    fn msg_cap_splits_batches_and_zero_means_one() {
        let queues = SenderQueues::default();
        for n in 0..5 {
            queues.push(NodeId(0), None, msg(n));
        }
        let config = BatchConfig { max_batch_msgs: 2, ..BatchConfig::default() };
        let sizes: Vec<usize> = std::iter::from_fn(|| queues.pop_batch(&config))
            .map(|(_, b)| b.len())
            .collect();
        assert_eq!(sizes, vec![2, 2, 1]);

        let queues = SenderQueues::default();
        queues.push(NodeId(0), None, msg(0));
        queues.push(NodeId(0), None, msg(1));
        let config = BatchConfig { max_batch_msgs: 0, ..BatchConfig::default() };
        let sizes: Vec<usize> = std::iter::from_fn(|| queues.pop_batch(&config))
            .map(|(_, b)| b.len())
            .collect();
        assert_eq!(sizes, vec![1, 1], "cap 0 degrades to one message per post");
    }

    #[test]
    fn byte_cap_is_soft_and_first_message_always_goes() {
        let queues = SenderQueues::default();
        let big = "x".repeat(100);
        queues.push(NodeId(0), None, big.clone());
        queues.push(NodeId(0), None, big.clone());
        queues.push(NodeId(0), None, big);
        let config = BatchConfig { max_batch_msgs: 16, max_batch_bytes: 150 };
        let sizes: Vec<usize> = std::iter::from_fn(|| queues.pop_batch(&config))
            .map(|(_, b)| b.len())
            .collect();
        assert_eq!(sizes, vec![1, 1, 1], "each 100-byte message exceeds the next slot");
    }

    #[test]
    fn forwards_of_one_notification_share_their_bytes() {
        let body = "<env:Body>".to_string() + &"payload ".repeat(400) + "é</env:Body>";
        let forward = |to: usize| format!("<To>node{to}</To><Id>{}</Id>{body}", to * 7919);
        let queues = SenderQueues::default();
        for to in 1..=5 {
            queues.push(NodeId(to), None, forward(to));
        }
        queues.push(NodeId(1), None, "<other/>".into());
        queues.push(NodeId(2), None, forward(2).replace("payload", "another"));
        let mut own = 0;
        while let Some((to, batch)) = queues.pop_batch(&BatchConfig::default()) {
            for (i, msg) in batch.iter().enumerate() {
                // Whatever is shared, the bytes that come out are the bytes
                // that went in.
                match (to.0, i) {
                    (1, 1) => assert_eq!(msg.parts().concat(), "<other/>"),
                    (2, 1) => assert!(msg.parts().concat().contains("another")),
                    _ => assert_eq!(msg.parts().concat(), forward(to.0)),
                }
                assert_eq!(msg.len(), msg.parts().concat().len());
                own += msg.parts()[1].len();
            }
        }
        // One of the five forwards holds the shared bytes; the other four
        // kept only what differs (a node digit and an id) — never cutting
        // a two-byte character in half.
        assert!(own <= 4 * 16 + 8, "{own} bytes kept for four shared forwards and a stranger");
        assert_eq!(common_ends("éa", "éb"), (2, 0));
        assert_eq!(common_ends("aé", "bé"), (0, 2));
        assert_eq!(common_ends("\u{e9}x\u{e9}", "\u{e8}x\u{1e9}"), (0, 0), "shared half-characters do not count");
        assert_eq!(common_ends("", "x"), (0, 0));
        assert_eq!(common_ends("same", "same"), (4, 0));
        assert_eq!(common_ends("abXcd", "abYYcd"), (2, 2));
    }

    #[test]
    fn forwards_the_gossip_layer_hands_over_keep_a_short_run_of_their_own() {
        use ws_gossip::layer::GossipLayerHandle;
        use ws_gossip::GossipHeader;
        use wsg_coord::{CoordinationContext, GossipGrant, GossipPolicy, GossipProtocol};
        use wsg_soap::handler::Direction;
        use wsg_soap::{Envelope, HandlerChain, MessageHeaders};

        // A live fleet's notification: loopback endpoints, a 256-byte
        // payload, the coordination context and gossip header.
        let peer = |n: usize| format!("http://127.0.0.1:{}/gossip", 41000 + 137 * n);
        let context = CoordinationContext::new(
            "urn:ws-gossip:ctx:3f2a",
            GossipProtocol::Push,
            "http://127.0.0.1:41000/registration",
            GossipPolicy::default(),
        );
        let gossip = |seq| GossipHeader {
            context_id: "urn:ws-gossip:ctx:3f2a".into(),
            topic: "quotes".into(),
            origin: peer(1),
            seq,
            round: 1,
        };
        let notification = |seq| {
            Envelope::request(
                MessageHeaders::request(peer(2), ws_gossip::actions::NOTIFY)
                    .with_message_id(format!("urn:uuid:{seq:032x}")),
                wsg_xml::Element::text_node("tick", format!("{seq}+").repeat(128)),
            )
            .with_header(context.to_header())
            .with_header(gossip(seq).to_element())
        };
        let handle = GossipLayerHandle::new(peer(2), 5);
        let grant = GossipGrant { fanout: 6, rounds: 4, peers: (1..=8).map(peer).collect() };
        handle.set_grant("urn:ws-gossip:ctx:3f2a", grant);
        let mut chain = HandlerChain::new();
        chain.push(Box::new(handle.handler()));

        let queues = SenderQueues::default();
        let mut sent = Vec::new();
        for seq in 0..3 {
            let arrived = Envelope::parse(&notification(seq).to_xml()).unwrap();
            let forwards = chain.process(Direction::Inbound, arrived, peer(2)).sends;
            assert!(forwards.len() >= 4, "{} forwards", forwards.len());
            for (to, forward) in forwards.iter().enumerate() {
                sent.push((to, forward.to_xml()));
                queues.push(NodeId(to), None, forward.to_xml());
            }
        }
        let (mut own, mut whole, mut coded) = (Vec::new(), 0, 0);
        let mut wire = String::new();
        while let Some((to, batch)) = queues.pop_batch(&BatchConfig::default()) {
            let queued: Vec<&String> = sent.iter().filter(|(t, _)| *t == to.0).map(|(_, x)| x).collect();
            assert_eq!(batch.len(), queued.len());
            for (msg, xml) in batch.iter().zip(queued) {
                assert_eq!(&msg.parts().concat(), xml);
                match msg.parts()[1].len() {
                    0 => whole += 1,
                    kept => own.push(kept),
                }
            }
            // And to one peer the three notifications say their ~950
            // bytes of conversation once.
            let parts = batch.iter().map(|m| (m.target.as_deref(), m.parts()));
            let fresh = &mut String::new();
            coded += wsg_soap::batch::write_batch_parts(parts, fresh, &mut wire) / (batch.len() - 1);
        }
        // One copy of each notification holds its bytes; every other one
        // kept its `To` and `MessageID` — the port digits through the id —
        // and shares the rest, front and back.
        assert_eq!(whole, 3, "{own:?}");
        assert!(own.iter().all(|kept| (40..=110).contains(kept)), "{own:?}");
        assert!(coded / whole >= 900, "{coded} bytes shared in {whole} batches");
    }

    #[test]
    fn shared_pieces_batch_to_the_same_bytes_as_whole_messages() {
        use wsg_soap::batch::{write_batch, write_batch_parts, BatchItem};
        // Declarations that differ half-way through: the common prefix ends
        // inside one, where the batch writer could no longer strip it.
        let tail = format!("<a>{}</a>", "x".repeat(200));
        let xmls = [
            format!("<?xml version=\"1.0\"?>{tail}"),
            format!("<?xml version=\"1.1\"?>{tail}"),
            format!("  <?xml version=\"1.0\"?><b/>{tail}"),
            tail.clone(),
        ];
        let queues = SenderQueues::default();
        for xml in &xmls {
            queues.push(NodeId(1), None, xml.clone());
        }
        let (_, batch) = queues.pop_batch(&BatchConfig::default()).unwrap();
        assert!(batch.iter().any(|m| !m.parts()[1].is_empty()), "nothing was shared");
        let items: Vec<BatchItem<'_>> =
            xmls.iter().map(|xml| BatchItem { target: None, xml }).collect();
        let (mut whole, mut pieces) = (String::new(), String::new());
        write_batch(&items, &mut whole);
        let parts = batch.iter().map(|m| (m.target.as_deref(), m.parts()));
        write_batch_parts(parts, &mut String::new(), &mut pieces);
        assert_eq!(pieces, whole);
    }

    #[test]
    fn piggyback_requires_a_forming_batch() {
        let queues = SenderQueues::default();
        assert!(!queues.piggyback(NodeId(3), "/membership", "<hb/>"), "empty queue");
        queues.push(NodeId(3), None, msg(1));
        assert!(queues.piggyback(NodeId(3), "/membership", "<hb/>"));
        let (_, batch) = queues.pop_batch(&BatchConfig::default()).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[1].target.as_deref(), Some("/membership"));
        // Fully drained: the next piggyback attempt fails again.
        assert!(!queues.piggyback(NodeId(3), "/membership", "<hb/>"));
    }
}
