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
//! A queued gossip copy can also leave without being posted: when the
//! peer it is for sends this node the same notification first, the
//! server withdraws it (`SenderQueues::withdraw`) — the peer holds it, and
//! would only count it as a duplicate.
//!
//! Flush-on-idle is implicit in the wakeup protocol: every push sends a
//! wake token, and the sender drains on each one, so under light load a
//! message is posted alone immediately — a batch of one, front-coded
//! against the last message its keep-alive connection carried, so it costs
//! about what a message inside a batch does. Several messages share a POST
//! only while the sender is busy posting — exactly when coalescing pays.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;

use wsg_net::protocol::NodeId;
use wsg_net::sync::{AtomicBool, Mutex, Notify, Ordering};
use wsg_obs::Counter;
use wsg_soap::GossipId;

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
    // The gossip notification it is a copy of, if any.
    gossip: Option<QueuedId>,
}

/// A queued copy's gossip identity ([`GossipId`]), kept without a copy of
/// the origin: where in the message its text stands.
#[derive(Debug, Clone)]
struct QueuedId {
    origin: Origin,
    seq: u64,
}

#[derive(Debug, Clone)]
enum Origin {
    /// The origin is these bytes of the message.
    At(Range<usize>),
    /// The origin's text had references resolved: it is no slice of the
    /// message.
    Resolved(Box<str>),
}

/// A gossip copy's identity as [`SenderQueues::push`] read it, and how
/// many leading bytes of the message decided it.
type HeadRead = (QueuedId, usize);

impl QueuedId {
    /// The identity of the gossip envelope `xml`, read off its head.
    fn read(xml: &str) -> Option<HeadRead> {
        let (GossipId { origin, seq }, read) = wsg_soap::gossip::gossip_id(xml)?;
        let origin = match origin {
            Cow::Borrowed(text) => match span_in(xml, text) {
                Some(span) => Origin::At(span),
                // Only an empty text is borrowed from elsewhere.
                None => Origin::Resolved(text.into()),
            },
            Cow::Owned(text) => Origin::Resolved(text.into_boxed_str()),
        };
        Some((QueuedId { origin, seq }, read))
    }
}

/// Where `part` lies in `source`, when it is a slice of it.
fn span_in(source: &str, part: &str) -> Option<Range<usize>> {
    let start = (part.as_ptr() as usize).checked_sub(source.as_ptr() as usize)?;
    let end = start.checked_add(part.len())?;
    (end <= source.len()).then_some(start..end)
}

impl QueuedMsg {
    /// A message owning all of its bytes.
    fn whole(target: Option<String>, xml: Arc<String>, gossip: Option<QueuedId>) -> Self {
        QueuedMsg { target, own: String::new(), shared: xml, prefix: 0, suffix_from: 0, gossip }
    }

    /// Whether this is a copy of gossip notification `id`.
    fn carries(&self, id: &GossipId<'_>) -> bool {
        match &self.gossip {
            Some(own) if own.seq == id.seq => match &own.origin {
                Origin::At(span) => self.text_is(span.clone(), &id.origin),
                Origin::Resolved(origin) => **origin == *id.origin,
            },
            _ => false,
        }
    }

    /// Whether the XML's bytes at `span` are `text`, whichever pieces they
    /// lie in.
    fn text_is(&self, span: Range<usize>, text: &str) -> bool {
        if span.len() != text.len() {
            return false;
        }
        let mut at = 0;
        self.parts().iter().all(|part| {
            let (from, to) = (span.start.max(at), span.end.min(at + part.len()));
            let same = from >= to
                || part.as_bytes()[from - at..to - at]
                    == text.as_bytes()[from - span.start..to - span.start];
            at += part.len();
            same
        })
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
    /// Messages [withdrawn](SenderQueues::withdraw), counted under the
    /// queues' lock.
    withdrawn: Arc<Counter>,
    /// Called by the sender thread on exhausted connection-refused POSTs —
    /// `wsg_cluster` wires this to `MembershipPlane::note_unreachable` so
    /// gossip traffic feeds the failure detector too.
    unreachable_hook: Mutex<Option<UnreachableHook>>,
}

#[derive(Default)]
struct Queued {
    by_peer: BTreeMap<NodeId, VecDeque<QueuedMsg>>,
    // The last message pushed whole: what the next one may share bytes
    // with, and its identity when it is a gossip copy.
    last_whole: Option<(Arc<String>, Option<HeadRead>)>,
}

impl SenderQueues {
    /// Queues that count what they withdraw in `withdrawn`.
    pub(crate) fn counting(withdrawn: Arc<Counter>) -> Self {
        SenderQueues { withdrawn, ..SenderQueues::default() }
    }

    /// Append for `to`, unconditionally. When at least three quarters of
    /// `xml` repeat the start and end of the last message queued whole (a
    /// forward of the same notification to another peer), only the
    /// differing middle is kept and the rest shared; anything else is
    /// queued whole. (Half is not enough to tell: the *next* notification
    /// of the conversation repeats the ~950 bytes of header that come
    /// before `wsg:Seq`, two thirds of a small message — and had better go
    /// whole, for its own copies to share all but ~100 bytes with.)
    ///
    /// A message for the gossip inbox (`target` `None`) carries the
    /// identity of the notification it is a copy of, read off its head.
    /// A copy that shares, with the last message queued whole, every byte
    /// that decided that message's identity has it too, and is not read
    /// again: of the `f` copies of one notification only the first is.
    ///
    /// Only the look-up of the last message queued whole and the append
    /// take the lock: comparing and reading happen outside it, on an `Arc`
    /// that keeps that message's bytes whatever is pushed meanwhile.
    pub(crate) fn push(&self, to: NodeId, target: Option<String>, xml: String) {
        let last = self.queues.lock().last_whole.clone();
        let (mut prefix, mut suffix) =
            last.as_ref().map_or((0, 0), |(text, _)| common_ends(text, &xml));
        let prologue = wsg_soap::batch::prologue_len(&xml);
        if prefix < prologue {
            // The batch writer strips an XML declaration from a message's
            // first piece: a declaration not shared whole stays whole in
            // `own`.
            prefix = 0;
            suffix = suffix.min(xml.len() - prologue);
        }
        let head = match last.as_ref().and_then(|(_, head)| head.as_ref()) {
            _ if target.is_some() => None,
            Some((id, read)) if *read <= prefix => Some((id.clone(), *read)),
            _ => QueuedId::read(&xml),
        };
        let gossip = head.as_ref().map(|(id, _)| id.clone());
        let (msg, whole) = match &last {
            Some((text, _)) if (prefix + suffix) * 4 >= xml.len() * 3 && suffix > 0 => {
                // A fresh small string, not `xml` cut down in place: the
                // big block goes back whole, for the next copy to reuse,
                // instead of being pinned by what is left at its start.
                let own = xml[prefix..xml.len() - suffix].to_string();
                let (shared, suffix_from) = (Arc::clone(text), text.len() - suffix);
                (QueuedMsg { target, own, shared, prefix, suffix_from, gossip }, None)
            }
            _ => {
                let xml = Arc::new(xml);
                let whole = (Arc::clone(&xml), head);
                (QueuedMsg::whole(target, xml, gossip), Some(whole))
            }
        };
        let mut queued = self.queues.lock();
        if whole.is_some() {
            queued.last_whole = whole;
        }
        queued.by_peer.entry(to).or_default().push_back(msg);
    }

    /// Append for `to` only if traffic is already queued there (the clone
    /// happens only on success). Returns whether the message was queued.
    pub(crate) fn piggyback(&self, to: NodeId, target: &str, xml: &str) -> bool {
        let mut queued = self.queues.lock();
        match queued.by_peer.get_mut(&to) {
            Some(queue) if !queue.is_empty() => {
                let xml = Arc::new(xml.to_string());
                queue.push_back(QueuedMsg::whole(Some(target.to_string()), xml, None));
                true
            }
            _ => false,
        }
    }

    /// Drop every copy of gossip notification `id` still queued for
    /// `from`: `from` just sent this node that notification, so it holds
    /// it, and a copy posted now would only be counted as its duplicate.
    /// Other peers' queues are not touched; a copy already taken for a
    /// POST is past withdrawing. Returns how many were dropped.
    pub(crate) fn withdraw(&self, from: NodeId, id: &GossipId<'_>) -> usize {
        let mut queued = self.queues.lock();
        let Some(queue) = queued.by_peer.get_mut(&from) else {
            return 0;
        };
        let before = queue.len();
        queue.retain(|msg| !msg.carries(id));
        let withdrawn = before - queue.len();
        if withdrawn > 0 {
            if queue.is_empty() {
                // As `pop_batch` does: the map holds peers with traffic.
                queued.by_peer.remove(&from);
            }
            self.withdrawn.add(withdrawn as u64);
        }
        withdrawn
    }

    /// Messages withdrawn so far.
    pub(crate) fn withdrawn(&self) -> u64 {
        self.withdrawn.get()
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

    #[test]
    fn withdraw_races_the_drain() {
        // The server withdraws a gossip copy while the node queues it and
        // the sender drains: under every interleaving within the bound,
        // the copy is posted once or withdrawn — never both, never
        // stranded — and the message beside it is posted once.
        const COPY: &str = "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">\
            <env:Header><wsg:Gossip xmlns:wsg=\"urn:ws-gossip:2008\"><wsg:Context>c</wsg:Context>\
            <wsg:Topic>t</wsg:Topic><wsg:Origin>o</wsg:Origin><wsg:Seq>1</wsg:Seq>\
            <wsg:Round>1</wsg:Round></wsg:Gossip></env:Header><env:Body/></env:Envelope>";
        // Which ends the explored schedules reached: bit 0 posted, bit 1
        // withdrawn.
        static OUTCOMES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let outcome = Explorer::new()
            .preemption_bound(3)
            .max_schedules(500_000)
            .samples(16)
            .explore(|| {
                let queues = Arc::new(SenderQueues::default());
                let signal = Arc::new(WakeSignal::default());
                let out = OutboundHandle::new(Arc::clone(&queues), Arc::clone(&signal));
                let sender = spawn_sender(Arc::clone(&queues), Arc::clone(&signal));
                let server = {
                    let queues = Arc::clone(&queues);
                    thread::spawn(move || {
                        let id = GossipId { origin: "o".into(), seq: 1 };
                        queues.withdraw(NodeId(1), &id)
                    })
                };
                out.send(NodeId(1), COPY.to_string());
                out.send(NodeId(1), "<m>0</m>".to_string());
                let withdrawn = server.join().unwrap();
                out.stop();
                let drained = sender.join().unwrap();
                let posted = drained.iter().filter(|xml| *xml == COPY).count();
                assert_eq!(posted + withdrawn, 1, "posted {posted}, withdrawn {withdrawn}");
                assert_eq!(drained.len(), 1 + posted, "{drained:?}");
                assert_eq!(queues.withdrawn(), withdrawn as u64);
                assert!(queues.pop_batch(&BatchConfig::default()).is_none());
                OUTCOMES.fetch_or(1 << withdrawn, std::sync::atomic::Ordering::Relaxed);
            });
        assert!(
            outcome.failure.is_none(),
            "a withdraw raced the drain into a lost or doubled message:\n{}",
            outcome.failure.map(|f| f.report()).unwrap_or_default()
        );
        assert!(outcome.exhausted, "({} schedules run)", outcome.schedules);
        assert_eq!(OUTCOMES.load(std::sync::atomic::Ordering::Relaxed), 0b11, "both ends reached");
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
                // The sender reads the identity the layer dedups on.
                let header = GossipHeader::from_envelope(forward).unwrap();
                let xml = forward.to_xml();
                let (id, _) = wsg_soap::gossip::gossip_id(&xml).unwrap();
                assert_eq!((id.origin.as_ref(), id.seq), (header.origin.as_str(), header.seq));
                sent.push((to, xml.clone()));
                queues.push(NodeId(to), None, xml);
            }
        }
        let (mut own, mut whole, mut coded) = (Vec::new(), 0, 0);
        let mut wire = String::new();
        while let Some((to, batch)) = queues.pop_batch(&BatchConfig::default()) {
            let queued: Vec<&String> = sent.iter().filter(|(t, _)| *t == to.0).map(|(_, x)| x).collect();
            assert_eq!(batch.len(), queued.len());
            for (msg, xml) in batch.iter().zip(queued) {
                assert_eq!(&msg.parts().concat(), xml);
                let id = Envelope::parse(xml).unwrap().gossip_id().unwrap().into_owned();
                assert!(msg.carries(&id), "{xml}");
                assert!(!msg.carries(&GossipId { seq: id.seq + 1, ..id.clone() }));
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

    /// A gossip copy of notification `(origin, seq)` for peer `to`: what
    /// the layer hands over, one forward of several that share their bytes.
    fn copy(origin: &str, seq: u64, to: usize, payload: &str) -> String {
        use ws_gossip::GossipHeader;
        use wsg_soap::{Envelope, MessageHeaders};
        let header = GossipHeader {
            context_id: "urn:ws-gossip:ctx:9".into(),
            topic: "quotes".into(),
            origin: origin.into(),
            seq,
            round: 2,
        };
        Envelope::request(
            MessageHeaders::request(format!("http://127.0.0.1:{}/gossip", 41000 + to), ws_gossip::actions::NOTIFY)
                .with_message_id(format!("urn:uuid:{seq:08x}{to:024x}")),
            wsg_xml::Element::text_node("tick", payload),
        )
        .with_header(header.to_element())
        .to_xml()
    }

    fn id(origin: &str, seq: u64) -> GossipId<'static> {
        GossipId { origin: Cow::Owned(origin.to_string()), seq }
    }

    #[test]
    fn withdrawing_the_copy_that_holds_the_bytes_leaves_the_others_whole() {
        let payload = "payload ".repeat(300) + "é";
        let origin = "http://127.0.0.1:41001/gossip";
        let queues = SenderQueues::default();
        for to in 1..=5 {
            queues.push(NodeId(to), None, copy(origin, 7, to, &payload));
        }
        // Peer 1's copy went whole: the other four share its bytes.
        assert_eq!(queues.withdraw(NodeId(2), &id(origin, 8)), 0, "another notification");
        assert_eq!(queues.withdraw(NodeId(2), &id("http://127.0.0.1:41002/gossip", 7)), 0);
        assert_eq!(queues.withdraw(NodeId(9), &id(origin, 7)), 0, "nothing queued there");
        assert_eq!(queues.withdraw(NodeId(1), &id(origin, 7)), 1);
        assert_eq!(queues.withdraw(NodeId(1), &id(origin, 7)), 0, "gone already");
        assert_eq!(queues.withdrawn(), 1);
        assert!(!queues.queues.lock().by_peer.contains_key(&NodeId(1)), "an emptied queue is dropped");
        let mut own = 0;
        while let Some((to, batch)) = queues.pop_batch(&BatchConfig::default()) {
            assert_ne!(to, NodeId(1));
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].parts().concat(), copy(origin, 7, to.0, &payload));
            own += batch[0].parts()[1].len();
        }
        assert!(own <= 4 * 110, "{own} bytes kept for four shared copies");
    }

    /// The queue contract, over random pushes, piggybacks, withdraws and
    /// drains across peers, against a model of per-peer FIFOs: what comes
    /// out is what went in — byte for byte, in per-peer order, in
    /// ascending peer order — less exactly the gossip copies withdrawn
    /// from their own peer while queued. A withdraw touches no other peer,
    /// never takes a message that is not a gossip copy for the inbox, and
    /// leaves no state behind when it takes nothing.
    #[test]
    fn queue_contract_holds_under_random_withdraws() {
        use wsg_net::check::run;
        use wsg_net::{prop_assert, prop_assert_eq};

        // Origins a layer writes as they are, and one it escapes.
        let origins = ["http://127.0.0.1:41001/gossip", "http://127.0.0.1:41002/gossip", "urn:a&b"];
        // Envelopes that name a notification, but carry no gossip block the
        // layer decodes: never withdrawn.
        let strangers = |origin: &str, seq: u64| {
            let escaped = origin.replace('&', "&amp;");
            [
                format!(
                    "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"><env:Header/>\
                     <env:Body><wsg:Register xmlns:wsg=\"urn:ws-gossip:2008\"><wsg:Origin>{escaped}</wsg:Origin>\
                     <wsg:Seq>{seq}</wsg:Seq></wsg:Register></env:Body></env:Envelope>"
                ),
                copy(origin, seq, 0, "no round").replace("<wsg:Round>2</wsg:Round>", ""),
            ]
        };
        run("queue_contract_holds_under_random_withdraws", 128, |g| {
            let queues = SenderQueues::default();
            // Per peer: (xml, target, identity when withdrawable).
            type Entry = (String, Option<String>, Option<(usize, u64)>);
            let mut model: BTreeMap<usize, VecDeque<Entry>> = BTreeMap::new();
            let mut withdrawn = 0;
            let payload = "x".repeat(g.usize(0..=600));
            for _ in 0..g.usize(1..=60) {
                let (peer, origin, seq) = (g.usize(0..=3), g.usize(0..=2), g.u64(0..=3));
                match g.usize(0..=9) {
                    // Copies of one notification to several peers, as a
                    // first receipt queues them: they share bytes.
                    0..=3 => {
                        for to in 0..=3 {
                            if to == peer || g.bool(0.5) {
                                let xml = copy(origins[origin], seq, to, &payload);
                                queues.push(NodeId(to), None, xml.clone());
                                model.entry(to).or_default().push_back((xml, None, Some((origin, seq))));
                            }
                        }
                    }
                    4 => {
                        let xml = g.pick(&strangers(origins[origin], seq)).clone();
                        queues.push(NodeId(peer), None, xml.clone());
                        model.entry(peer).or_default().push_back((xml, None, None));
                    }
                    5 => {
                        // A rider with a gossip block: not for the inbox.
                        let xml = copy(origins[origin], seq, peer, "rider");
                        let rode = queues.piggyback(NodeId(peer), "/membership", &xml);
                        prop_assert_eq!(rode, model.contains_key(&peer));
                        if rode {
                            let target = Some("/membership".to_string());
                            model.entry(peer).or_default().push_back((xml, target, None));
                        }
                    }
                    6..=8 => {
                        let took = queues.withdraw(NodeId(peer), &id(origins[origin], seq));
                        let mut expected = 0;
                        if let Some(queue) = model.get_mut(&peer) {
                            let before = queue.len();
                            queue.retain(|(_, _, gossip)| *gossip != Some((origin, seq)));
                            expected = before - queue.len();
                            if queue.is_empty() {
                                model.remove(&peer);
                            }
                        }
                        prop_assert_eq!(took, expected);
                        withdrawn += took as u64;
                    }
                    _ => {
                        let config = BatchConfig { max_batch_msgs: g.usize(1..=4), ..BatchConfig::default() };
                        let popped = queues.pop_batch(&config);
                        let first = model.keys().next().copied();
                        prop_assert_eq!(popped.as_ref().map(|(to, _)| to.0), first);
                        if let (Some((_, batch)), Some(peer)) = (popped, first) {
                            let queue = model.get_mut(&peer).unwrap();
                            for msg in &batch {
                                let (xml, target, _) = queue.pop_front().unwrap();
                                prop_assert!(msg.parts().concat() == xml, "peer {peer}: bytes changed");
                                prop_assert_eq!(msg.target, target);
                            }
                            if queue.is_empty() {
                                model.remove(&peer);
                            }
                        }
                    }
                }
                // Only peers with traffic have a queue: a withdraw that
                // took nothing left nothing behind.
                let peers: Vec<usize> = queues.queues.lock().by_peer.keys().map(|id| id.0).collect();
                prop_assert_eq!(peers, model.keys().copied().collect::<Vec<_>>());
                prop_assert_eq!(queues.withdrawn(), withdrawn);
            }
            while let Some((to, batch)) = queues.pop_batch(&BatchConfig::default()) {
                let queue = model.get_mut(&to.0).unwrap();
                for msg in &batch {
                    let (xml, target, _) = queue.pop_front().unwrap();
                    prop_assert!(msg.parts().concat() == xml, "peer {}: bytes changed", to.0);
                    prop_assert_eq!(msg.target, target);
                }
                if queue.is_empty() {
                    model.remove(&to.0);
                }
            }
            prop_assert!(model.is_empty(), "never posted: {model:?}");
            Ok(())
        });
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
