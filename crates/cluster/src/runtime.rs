//! [`ClusterRuntime`]: a [`NetRuntime`] fleet where every node also runs
//! a [`MembershipPlane`] — served on its socket at `/membership`, pumped
//! by a per-node heartbeat thread, and consulted by the application
//! protocol (through [`wsg_net::PeerLiveness`]) for peer selection.
//!
//! Wall-clock discipline (lint rule D2): this module never reads
//! `Instant::now` itself — planes read time through the fleet's one
//! clock ([`NetRuntime::clock`], the epoch the node loops' `ctx.now()`
//! counts from), pump threads pace themselves with `thread::sleep`
//! converted via `SimDuration::to_std`.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use wsg_http::{NetNode, NetRuntime, NetRuntimeConfig, OutboundHandle, SoapHttpClient};
use wsg_http::server::{Service, SoapReply};
use wsg_net::time::Clock;
use wsg_net::{NodeId, Protocol, SplitMix64};
use wsg_obs::Registry;
use wsg_soap::{Envelope, Fault, FaultCode};

use crate::plane::{ClusterConfig, MembershipPlane};
use crate::proto::{membership_uri, ClusterMessage, MEMBERSHIP_TARGET};

/// A deployed node's membership machinery.
struct ClusterSlot {
    plane: Arc<MembershipPlane>,
    stop: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
}

/// A live fleet with a membership plane on every node.
///
/// The builder closures handed to [`ClusterRuntime::add_seed`] /
/// [`ClusterRuntime::add_node`] receive the node's plane so the protocol
/// can adopt it as its liveness oracle (e.g.
/// `WsGossipNode::with_liveness(plane)`); the runtime itself never
/// inspects the protocol.
pub struct ClusterRuntime<P: Protocol<Message = String> + Send + 'static> {
    net: NetRuntime<P>,
    slots: Vec<ClusterSlot>,
    config: ClusterConfig,
    /// Seeds pump clients and plane shuffles, in deploy order.
    seeder: SplitMix64,
    /// Client used for synchronous Join bootstraps and Leave broadcasts.
    external: SoapHttpClient,
}

impl<P> ClusterRuntime<P>
where
    P: Protocol<Message = String> + Send + 'static,
{
    /// An empty fleet. All planes read the node loops' clock, so plane
    /// timestamps and `ctx.now()` readings are mutually comparable.
    pub fn new(seed: u64, net_config: NetRuntimeConfig, config: ClusterConfig) -> Self {
        let mut seeder = SplitMix64::new(seed ^ 0x0063_6c75_7374_6572);
        let external = SoapHttpClient::new(seeder.next(), net_config.client.clone());
        ClusterRuntime {
            net: NetRuntime::new(seed, net_config),
            slots: Vec::new(),
            config,
            seeder,
            external,
        }
    }

    /// Deploy a member that bootstraps by posting `Join` to the already-
    /// running node `seed` and adopting its synchronous `JoinResponse`.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the seed is unreachable or replies with
    /// something that is not a well-formed `JoinResponse`. The node is
    /// still deployed in that case — it will discover the fleet only if
    /// some member heartbeats it first.
    pub fn add_node<F>(&mut self, seed: NodeId, build: F) -> io::Result<NodeId>
    where
        F: FnOnce(Arc<MembershipPlane>) -> P,
    {
        let id = self.add_seed(build);
        let plane = Arc::clone(&self.slots[id.index()].plane);
        let seed_addr = self.net.addr_of(seed);
        let join = ClusterMessage::Join(plane.self_entry());
        let xml = join.to_envelope(membership_uri(seed_addr)).to_xml();
        let outcome = self
            .external
            .post(seed_addr, MEMBERSHIP_TARGET, Some(&join.action()), &[], xml.as_bytes())
            .map_err(|e| io::Error::other(format!("join via {seed}: {e}")))?;
        if outcome.response.status != 200 {
            return Err(io::Error::other(format!(
                "join via {seed}: HTTP {}",
                outcome.response.status
            )));
        }
        let envelope = Envelope::parse(&outcome.response.body_text())
            .map_err(|e| io::Error::other(format!("join reply: {e}")))?;
        match ClusterMessage::from_envelope(&envelope) {
            Ok(ClusterMessage::JoinResponse(entries)) => {
                plane.bootstrap(&entries);
                Ok(id)
            }
            Ok(other) => {
                Err(io::Error::other(format!("join reply was a {}", other.operation())))
            }
            Err(e) => Err(io::Error::other(format!("join reply: {e}"))),
        }
    }

    /// Deploy a bootstrap member — bind, route, and start one node plus
    /// its plane and pump thread. It starts with a view containing only
    /// itself and waits for joiners (or heartbeats) to find it.
    pub fn add_seed<F>(&mut self, build: F) -> NodeId
    where
        F: FnOnce(Arc<MembershipPlane>) -> P,
    {
        // Ids are dense and never reused, so the next one is predictable —
        // which lets the plane (and the route closure capturing it) exist
        // before the listener does.
        let id = NodeId(self.net.node_count());
        let plane = Arc::new(MembershipPlane::new(
            id,
            Arc::new(self.net.clock()) as Arc<dyn Clock>,
            self.config.clone(),
            self.seeder.next(),
        ));

        let route_plane = Arc::clone(&plane);
        #[allow(clippy::result_large_err)] // the Err size is fixed by the Service signature
        let service: Service = Arc::new(move |request| {
            let message = ClusterMessage::from_envelope(&request.envelope()?)
                .map_err(|e| Fault::new(FaultCode::Sender, e.to_string()))?;
            match route_plane.handle(&message) {
                Some(reply) => {
                    let to = route_plane
                        .addr_of(route_plane.id())
                        .map(membership_uri)
                        .unwrap_or_else(|| "urn:unaddressed".into());
                    Ok(SoapReply::Envelope(reply.to_envelope(to)))
                }
                None => Ok(SoapReply::Accepted),
            }
        });

        let protocol = build(Arc::clone(&plane));
        let assigned =
            self.net.add_node_routed(protocol, vec![(MEMBERSHIP_TARGET.to_string(), service)]);
        debug_assert_eq!(assigned, id);
        plane.register_self(self.net.addr_of(id));
        plane.attach_registry(&self.net.registry_of(id));

        // Gossip traffic feeds the failure detector too: a peer whose
        // batch was connection-refused after retries is condemned exactly
        // like one that refused a heartbeat.
        let outbound = self.net.outbound_of(id);
        let hook_plane = Arc::clone(&plane);
        outbound.set_unreachable_hook(Arc::new(move |addr| {
            hook_plane.note_unreachable(addr);
        }));

        let stop = Arc::new(AtomicBool::new(false));
        let pump = spawn_pump(
            Arc::clone(&plane),
            Arc::clone(&stop),
            SoapHttpClient::new_observed(
                self.seeder.next(),
                self.net_client_config(),
                &self.net.registry_of(id),
            ),
            outbound,
        );
        self.slots.push(ClusterSlot { plane, stop, pump: Some(pump) });
        id
    }

    fn net_client_config(&self) -> wsg_http::HttpClientConfig {
        // The pump tolerates no retries: a refused heartbeat *is* the
        // signal (note_unreachable), and retry backoff would stall the
        // round. Every timeout is scaled to the heartbeat interval for
        // the same reason — a slow peer must never hold the pump long
        // enough for *our* silence to exceed other nodes' fail window.
        // Detection latency beats delivery guarantees here.
        let interval = self.config.interval.to_std();
        let mut config = wsg_http::HttpClientConfig::default();
        config.retries = 0;
        config.connect_timeout = interval.max(std::time::Duration::from_millis(50));
        config.read_timeout = (interval * 2).max(std::time::Duration::from_millis(100));
        config.write_timeout = config.read_timeout;
        config
    }

    /// This node's membership plane.
    pub fn plane(&self, id: NodeId) -> Arc<MembershipPlane> {
        Arc::clone(&self.slots[id.index()].plane)
    }

    /// The underlying socket fleet.
    pub fn net(&self) -> &NetRuntime<P> {
        &self.net
    }

    /// Node `id`'s metric registry (delegates to the fleet).
    pub fn registry_of(&self, id: NodeId) -> Arc<Registry> {
        self.net.registry_of(id)
    }

    /// Gracefully depart node `id`: stop its pump, broadcast its `Leave`
    /// to every member it still considered live, then drain and stop the
    /// node. Returns its final state ([`None`] if already stopped).
    pub fn leave(&mut self, id: NodeId) -> Option<NetNode<P>> {
        let slot = self.slots.get_mut(id.index())?;
        stop_pump(slot);
        let plane = Arc::clone(&slot.plane);
        let leave = ClusterMessage::Leave(plane.self_entry());
        for peer in plane.live_members() {
            if peer == id {
                continue;
            }
            if let Some(addr) = plane.addr_of(peer) {
                let xml = leave.to_envelope(membership_uri(addr)).to_xml();
                // Best-effort: a peer that misses the announcement will
                // time the leaver out like any silent member.
                // wsg_lint: allow(error-swallowing) — the accrual detector is the backstop for a lost Leave
                let _ = self.external.post(
                    addr,
                    MEMBERSHIP_TARGET,
                    Some(&leave.action()),
                    &[],
                    xml.as_bytes(),
                );
            }
        }
        self.net.remove_node(id)
    }

    /// Crash-stop node `id`: no announcement, listener down first, pump
    /// killed. Survivors must *detect* the failure.
    pub fn crash(&mut self, id: NodeId) -> Option<NetNode<P>> {
        let slot = self.slots.get_mut(id.index())?;
        stop_pump(slot);
        self.net.crash(id)
    }

    /// Stop every pump, then the whole fleet. Returns final node states
    /// in id order (already-stopped nodes are not re-reported).
    pub fn shutdown(mut self) -> Vec<NetNode<P>> {
        // Flag every pump before joining any: each may be up to one
        // interval into its sleep, and those waits must overlap, not add.
        for slot in &self.slots {
            slot.stop.store(true, Ordering::SeqCst);
        }
        for slot in &mut self.slots {
            stop_pump(slot);
        }
        self.net.shutdown()
    }
}

fn stop_pump(slot: &mut ClusterSlot) {
    slot.stop.store(true, Ordering::SeqCst);
    if let Some(handle) = slot.pump.take() {
        // wsg_lint: allow(E2) — a panicked pump already showed up as missing heartbeats; shutdown must still proceed
        let _ = handle.join();
    }
}

/// The heartbeat pump: every `interval`, advance the plane one round and
/// push the heartbeat to its chosen targets — piggybacked onto an
/// outbound gossip batch already forming for that peer when there is one
/// (no extra request at all), POSTed directly otherwise, as a batch of one
/// front-coded against the last heartbeat the pump's connection to that
/// peer carried. Refused direct targets are reported back
/// ([`MembershipPlane::note_unreachable`]) and their pooled connections
/// evicted, as are all currently-dead members' addresses.
fn spawn_pump(
    plane: Arc<MembershipPlane>,
    stop: Arc<AtomicBool>,
    client: SoapHttpClient,
    outbound: OutboundHandle,
) -> JoinHandle<()> {
    let interval = plane.config().interval.to_std();
    std::thread::Builder::new()
        .name(format!("wsg-cluster-pump-{}", plane.id().index()))
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(interval);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let (message, targets) = plane.tick();
                for (member, addr) in targets {
                    let xml = message.to_envelope(membership_uri(addr)).to_xml();
                    // A batch already headed to this peer carries the
                    // heartbeat for free. Only the direct path below can
                    // observe a refusal, but batch failures reach the
                    // plane through the sender's unreachable hook, so no
                    // detection signal is lost.
                    if outbound.piggyback(member, MEMBERSHIP_TARGET, &xml) {
                        continue;
                    }
                    let heartbeat = std::iter::once((None, [xml.as_str(), "", ""]));
                    match client.post_batch(addr, MEMBERSHIP_TARGET, &[], heartbeat) {
                        Ok(_) => {}
                        // Refused means nobody is listening — condemn. A
                        // timeout is only load (the φ detector will catch
                        // a genuinely silent member soon enough), and
                        // condemning live-but-busy peers makes views flap.
                        Err(e) if e.last.kind() == std::io::ErrorKind::ConnectionRefused => {
                            plane.note_unreachable(addr);
                        }
                        Err(_) => {}
                    }
                }
                for addr in plane.dead_addrs() {
                    client.evict(addr);
                }
            }
        })
        .expect("spawn cluster pump thread")
}
