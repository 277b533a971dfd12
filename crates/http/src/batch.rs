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
//! message is posted alone immediately (batch of one, byte-identical to
//! the unbatched wire format). Batches only form while the sender is busy
//! posting — exactly when coalescing pays.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;

use wsg_net::protocol::NodeId;
use wsg_net::sync::{AtomicBool, Mutex, Notify, Ordering};

/// Drain-policy knobs for the sender thread's per-peer batches.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Most messages coalesced into one POST. `1` disables wrapping
    /// entirely (every message posts alone); `0` is treated as `1`.
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
#[derive(Debug)]
pub(crate) struct QueuedMsg {
    pub(crate) target: Option<String>,
    pub(crate) xml: String,
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
    queues: Mutex<BTreeMap<NodeId, VecDeque<QueuedMsg>>>,
    /// Called by the sender thread on exhausted connection-refused POSTs —
    /// `wsg_cluster` wires this to `MembershipPlane::note_unreachable` so
    /// gossip traffic feeds the failure detector too.
    unreachable_hook: Mutex<Option<UnreachableHook>>,
}

impl SenderQueues {
    /// Append for `to`, unconditionally.
    pub(crate) fn push(&self, to: NodeId, target: Option<String>, xml: String) {
        self.queues.lock().entry(to).or_default().push_back(QueuedMsg { target, xml });
    }

    /// Append for `to` only if traffic is already queued there (the clone
    /// happens only on success). Returns whether the message was queued.
    pub(crate) fn piggyback(&self, to: NodeId, target: &str, xml: &str) -> bool {
        let mut queues = self.queues.lock();
        match queues.get_mut(&to) {
            Some(queue) if !queue.is_empty() => {
                queue.push_back(QueuedMsg {
                    target: Some(target.to_string()),
                    xml: xml.to_string(),
                });
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
        let mut queues = self.queues.lock();
        let to = queues.iter().find(|(_, q)| !q.is_empty()).map(|(id, _)| *id)?;
        let mut batch = Vec::new();
        let mut bytes = 0usize;
        if let Some(queue) = queues.get_mut(&to) {
            while let Some(front) = queue.front() {
                if !batch.is_empty()
                    && (batch.len() >= config.max_batch_msgs.max(1)
                        || bytes + front.xml.len() > config.max_batch_bytes)
                {
                    break;
                }
                bytes += front.xml.len();
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
                drained.extend(batch.into_iter().map(|m| m.xml));
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
            batch.iter().map(|m| m.xml.as_str()).collect::<Vec<_>>(),
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
