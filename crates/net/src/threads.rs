//! The live node loop, and a thread-per-node runtime over channels.
//!
//! The simulator answers the paper's quantitative questions; the live
//! runtimes demonstrate that the protocol implementations are real
//! programs, not simulation artifacts. There is exactly one live loop,
//! [`run_node`]: one OS thread per node, an inbox channel, timers read
//! off a [`Clock`], a deterministic per-node RNG. Where a node's sends go
//! is the caller's *sink*:
//!
//! * [`ThreadNet`] (here) hands them to the destination's inbox channel —
//!   any message type, no serialization;
//! * `wsg_http::NetRuntime` queues them for a sender thread that POSTs
//!   them over loopback sockets (`Message = String` envelopes).
//!
//! Loss/partition injection is deliberately absent — that is the
//! simulator's job.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::Duration;

use crate::protocol::{Context, NodeId, Protocol, TimerTag};
use crate::rng::{Pcg32, Rng64, SplitMix64};
use crate::time::{Clock, SimDuration, SimTime, WallClock};

/// What a node loop receives on its inbox channel.
pub enum Inbox<M> {
    /// A message from `from` for the protocol's `on_message`.
    Message {
        /// The sending node.
        from: NodeId,
        /// The message itself.
        msg: M,
    },
    /// Leave the loop and return the protocol's final state.
    Stop,
}

/// How long an idle loop (no timer armed) blocks per inbox wait.
const IDLE_WAIT: Duration = Duration::from_millis(50);

struct NodeCtx<'a, M, C> {
    clock: &'a C,
    id: NodeId,
    node_count: usize,
    rng: &'a mut Pcg32,
    outbox: Vec<(NodeId, M)>,
    timer_requests: Vec<(SimDuration, TimerTag)>,
}

impl<M, C: Clock> Context<M> for NodeCtx<'_, M, C> {
    fn now(&self) -> SimTime {
        self.clock.now()
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

/// Run `protocol` as node `id` until its inbox yields [`Inbox::Stop`] (or
/// every inbox sender is gone), then return its final state.
///
/// `on_start` runs first; after that the loop alternates between firing
/// due timers (earliest deadline first, ties in arming order) and waiting
/// on `rx` until the next deadline. Each callback's sends are handed to
/// `send` in order once the callback returns; `node_count` is consulted
/// per callback, so a growing deployment shows through
/// [`Context::node_count`]. Both are monomorphised — the per-message path
/// has no indirect call beyond the `dyn Context` the protocol sees.
pub fn run_node<P, C, N, S>(
    mut protocol: P,
    id: NodeId,
    rx: Receiver<Inbox<P::Message>>,
    rng: &mut Pcg32,
    clock: &C,
    node_count: N,
    mut send: S,
) -> P
where
    P: Protocol,
    C: Clock,
    N: Fn() -> usize,
    S: FnMut(NodeId, P::Message),
{
    // Pending timers as (fire-at, tag), earliest first.
    let mut timers: Vec<(SimTime, TimerTag)> = Vec::new();

    let mut dispatch = |protocol: &mut P,
                        timers: &mut Vec<(SimTime, TimerTag)>,
                        rng: &mut Pcg32,
                        event: Option<(NodeId, P::Message)>,
                        fired: Option<TimerTag>| {
        let mut ctx = NodeCtx {
            clock,
            id,
            node_count: node_count(),
            rng,
            outbox: Vec::new(),
            timer_requests: Vec::new(),
        };
        match (event, fired) {
            (Some((from, msg)), _) => protocol.on_message(from, msg, &mut ctx),
            (None, Some(tag)) => protocol.on_timer(tag, &mut ctx),
            (None, None) => protocol.on_start(&mut ctx),
        }
        let NodeCtx { outbox, timer_requests, .. } = ctx;
        for (to, msg) in outbox {
            send(to, msg);
        }
        if !timer_requests.is_empty() {
            let armed_at = clock.now();
            timers.extend(timer_requests.into_iter().map(|(delay, tag)| (armed_at + delay, tag)));
            timers.sort_by_key(|(at, _)| *at);
        }
    };

    dispatch(&mut protocol, &mut timers, rng, None, None); // on_start

    loop {
        // Fire due timers.
        let now = clock.now();
        while let Some(&(fire_at, tag)) = timers.first() {
            if fire_at > now {
                break;
            }
            timers.remove(0);
            dispatch(&mut protocol, &mut timers, rng, None, Some(tag));
        }
        let timeout = timers
            .first()
            .map(|(at, _)| at.since(clock.now()).to_std())
            .unwrap_or(IDLE_WAIT);
        match rx.recv_timeout(timeout) {
            Ok(Inbox::Message { from, msg }) => {
                dispatch(&mut protocol, &mut timers, rng, Some((from, msg)), None);
            }
            Ok(Inbox::Stop) | Err(RecvTimeoutError::Disconnected) => return protocol,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// A live network of protocol nodes, one OS thread each: [`run_node`]
/// with the destination's inbox channel as the send sink.
///
/// ```
/// use wsg_net::threads::ThreadNet;
/// use wsg_net::{Protocol, Context, NodeId};
/// use std::time::Duration;
///
/// struct Echo { got: bool }
/// impl Protocol for Echo {
///     type Message = String;
///     fn on_message(&mut self, _f: NodeId, _m: String, _c: &mut dyn Context<String>) {
///         self.got = true;
///     }
/// }
///
/// let mut net = ThreadNet::spawn(vec![Echo { got: false }, Echo { got: false }], 42);
/// net.send_external(NodeId(0), NodeId(1), "hi".to_string());
/// let nodes = net.shutdown_after(Duration::from_millis(100));
/// assert!(nodes[1].got);
/// ```
pub struct ThreadNet<P: Protocol> {
    senders: Vec<Sender<Inbox<P::Message>>>,
    handles: Vec<thread::JoinHandle<P>>,
}

impl<P> ThreadNet<P>
where
    P: Protocol + Send + 'static,
    P::Message: Send + 'static,
{
    /// Spawn one thread per protocol instance. `seed` feeds each node's
    /// deterministic random stream (scheduling is still OS-dependent).
    pub fn spawn(protocols: Vec<P>, seed: u64) -> Self {
        let node_count = protocols.len();
        let clock = WallClock::new();
        let mut seeder = SplitMix64::new(seed);
        let (senders, receivers): (Vec<Sender<Inbox<P::Message>>>, Vec<_>) =
            (0..node_count).map(|_| channel()).unzip();

        let mut handles = Vec::with_capacity(node_count);
        for (index, (protocol, rx)) in protocols.into_iter().zip(receivers).enumerate() {
            let id = NodeId(index);
            let all_senders = senders.clone();
            let mut rng = Pcg32::new(seeder.next(), index as u64);
            handles.push(thread::spawn(move || {
                run_node(protocol, id, rx, &mut rng, &clock, || node_count, |to, msg| {
                    if let Some(sender) = all_senders.get(to.0) {
                        // wsg_lint: allow(E2) — messages to stopped peers drop, mirroring the simulated network's semantics
                        let _ = sender.send(Inbox::Message { from: id, msg });
                    }
                })
            }));
        }
        ThreadNet { senders, handles }
    }

    /// Inject a message as if sent by `from`.
    pub fn send_external(&self, from: NodeId, to: NodeId, msg: P::Message) {
        // wsg_lint: allow(E2) — a closed inbox means the node already stopped; external sends to it drop by design
        let _ = self.senders[to.0].send(Inbox::Message { from, msg });
    }

    /// Let the network run for `duration` of wall-clock time, then stop all
    /// nodes and return their final protocol states in id order.
    pub fn shutdown_after(self, duration: Duration) -> Vec<P> {
        thread::sleep(duration);
        self.shutdown()
    }

    /// Stop all nodes immediately and return their final states.
    pub fn shutdown(self) -> Vec<P> {
        for sender in &self.senders {
            // wsg_lint: allow(E2) — a closed inbox means the node loop already exited; Stop is advisory
            let _ = sender.send(Inbox::Stop);
        }
        self.handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pinger {
        pings: u32,
        pongs: u32,
    }

    impl Protocol for Pinger {
        type Message = &'static str;
        fn on_message(&mut self, from: NodeId, msg: &'static str, ctx: &mut dyn Context<&'static str>) {
            match msg {
                "ping" => {
                    self.pings += 1;
                    ctx.send(from, "pong");
                }
                "pong" => self.pongs += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn message_exchange_over_threads() {
        let net = ThreadNet::spawn(
            vec![Pinger { pings: 0, pongs: 0 }, Pinger { pings: 0, pongs: 0 }],
            1,
        );
        net.send_external(NodeId(0), NodeId(1), "ping");
        let nodes = net.shutdown_after(Duration::from_millis(200));
        assert_eq!(nodes[1].pings, 1);
        assert_eq!(nodes[0].pongs, 1);
    }

    struct OneShotTimer {
        fired: bool,
    }

    impl Protocol for OneShotTimer {
        type Message = ();
        fn on_start(&mut self, ctx: &mut dyn Context<()>) {
            ctx.set_timer(SimDuration::from_millis(20), TimerTag(7));
        }
        fn on_message(&mut self, _: NodeId, _: (), _: &mut dyn Context<()>) {}
        fn on_timer(&mut self, tag: TimerTag, _: &mut dyn Context<()>) {
            assert_eq!(tag, TimerTag(7));
            self.fired = true;
        }
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let net = ThreadNet::spawn(vec![OneShotTimer { fired: false }], 2);
        let nodes = net.shutdown_after(Duration::from_millis(200));
        assert!(nodes[0].fired);
    }

    #[test]
    fn shutdown_without_traffic_is_clean() {
        let net = ThreadNet::spawn(vec![Pinger { pings: 0, pongs: 0 }], 3);
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 1);
    }
}
