//! SOAP stack integration: envelopes produced by one subsystem parse in
//! another, header blocks survive full wire round-trips, and the
//! middleware chain composes with application handlers.

use ws_gossip::{GossipHeader, WsGossipNode};
use wsg_coord::{
    ActivationService, CoordinationContext, GossipGrant, GossipPolicy, GossipProtocol,
    RegistrationService, SubscriptionList,
};
use wsg_gossip::GossipParams;
use wsg_net::NodeId;
use wsg_soap::handler::{Direction, Disposition};
use wsg_soap::{Envelope, Handler, HandlerChain, HandlerOutcome, MessageContext, MessageHeaders};
use wsg_xml::Element;

#[test]
fn coordination_context_survives_full_wire_roundtrip() {
    let context = CoordinationContext::new(
        "urn:ws-gossip:ctx:55",
        GossipProtocol::PushPull,
        "http://node0/registration",
        GossipPolicy::new(GossipParams::new(7, 11)),
    )
    .with_expires(120_000);
    let envelope = Envelope::request(
        MessageHeaders::request("http://node3/gossip", "urn:x:Op").with_message_id("urn:uuid:9"),
        Element::new("op"),
    )
    .with_header(context.to_header());
    let xml = envelope.to_xml();
    let parsed = Envelope::parse(&xml).unwrap();
    let header = parsed
        .header(wsg_coord::WSCOOR_NS, "CoordinationContext")
        .expect("context header present");
    let decoded = CoordinationContext::from_header(header).unwrap();
    assert_eq!(decoded, context);
    assert_eq!(decoded.policy().params().fanout(), 7);
}

#[test]
fn all_coordination_bodies_roundtrip_via_wire_xml() {
    // CreateCoordinationContext
    let req = ActivationService::encode_request(GossipProtocol::AntiEntropy);
    let re = Element::parse(&req.to_xml_string()).unwrap();
    assert_eq!(
        ActivationService::decode_request(&re).unwrap(),
        GossipProtocol::AntiEntropy
    );

    // Register
    let reg = RegistrationService::encode_register("urn:ctx:1", "http://node9/gossip");
    let re = Element::parse(&reg.to_xml_string()).unwrap();
    assert_eq!(
        RegistrationService::decode_register(&re).unwrap(),
        ("urn:ctx:1".to_string(), "http://node9/gossip".to_string())
    );

    // RegisterResponse + grant
    let grant = GossipGrant {
        fanout: 3,
        rounds: 5,
        peers: vec!["http://node1/gossip".into(), "http://node2/gossip".into()],
    };
    let re = Element::parse(&grant.to_register_response().to_xml_string()).unwrap();
    assert_eq!(GossipGrant::from_parent(&re).unwrap(), grant);

    // Subscribe
    let sub = SubscriptionList::encode_subscribe("quotes", "http://node4/gossip", 9000);
    let re = Element::parse(&sub.to_xml_string()).unwrap();
    assert_eq!(
        SubscriptionList::decode_subscribe(&re).unwrap(),
        ("quotes".to_string(), "http://node4/gossip".to_string(), 9000)
    );
}

#[test]
fn gossip_header_and_context_coexist_in_one_envelope() {
    let context = CoordinationContext::new(
        "urn:ws-gossip:ctx:0",
        GossipProtocol::Push,
        "http://node0/registration",
        GossipPolicy::default(),
    );
    let gossip = GossipHeader {
        context_id: "urn:ws-gossip:ctx:0".into(),
        topic: "quotes".into(),
        origin: "http://node1/gossip".into(),
        seq: 0,
        round: 2,
    };
    let envelope = Envelope::request(
        MessageHeaders::request("http://node5/gossip", "urn:ws-gossip:2008:Notify"),
        Element::text_node("tick", "ACME"),
    )
    .with_header(context.to_header())
    .with_header(gossip.to_element());
    let parsed = Envelope::parse(&envelope.to_xml()).unwrap();
    assert_eq!(GossipHeader::from_envelope(&parsed), Some(gossip));
    assert!(parsed.header(wsg_coord::WSCOOR_NS, "CoordinationContext").is_some());
    assert_eq!(parsed.body().unwrap().text(), "ACME");
}

#[test]
fn application_handler_composes_with_gossip_layer() {
    // A logging handler after the gossip layer still sees pass-through
    // (non-gossip) traffic; gossip traffic is intercepted before it.
    struct Logger {
        seen: Vec<String>,
    }
    impl Handler for Logger {
        fn name(&self) -> &str {
            "logger"
        }
        fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome {
            self.seen
                .push(ctx.envelope.addressing().action().unwrap_or("?").to_string());
            HandlerOutcome::Continue
        }
    }

    let layer = ws_gossip::layer::GossipLayerHandle::new("http://node1/gossip", 1);
    let mut chain = HandlerChain::new();
    chain.push(Box::new(layer.handler()));
    chain.push(Box::new(Logger { seen: Vec::new() }));

    let plain = Envelope::request(
        MessageHeaders::request("http://node1/gossip", "urn:app:Echo"),
        Element::new("echo"),
    );
    let result = chain.process(Direction::Inbound, plain, "http://node1/gossip");
    assert!(matches!(result.disposition, Disposition::Deliver(_)));
}

#[test]
fn node_tolerates_garbage_on_the_wire() {
    use wsg_net::sim::{SimConfig, SimNet};
    let mut net = SimNet::new(SimConfig::default().seed(1));
    let id = net.add_node(WsGossipNode::consumer(NodeId(0), NodeId(0)));
    net.send_external(id, id, "this is not xml <<<".to_string());
    net.send_external(id, id, "<notsoap/>".to_string());
    net.run_to_quiescence();
    let stats = net.node(id).stats();
    assert_eq!(stats.messages_received, 2);
    assert_eq!(stats.parse_errors, 2);
    assert!(net.node(id).ops().is_empty());
}

#[test]
fn fault_envelopes_roundtrip_between_subsystems() {
    let fault = wsg_soap::Fault::new(wsg_soap::FaultCode::Sender, "unknown coordination context")
        .with_detail(Element::text_node("ContextId", "urn:ctx:404"));
    let envelope = Envelope::fault(
        MessageHeaders::new().with_relates_to("urn:uuid:req-1"),
        fault.clone(),
    );
    let parsed = Envelope::parse(&envelope.to_xml()).unwrap();
    assert!(parsed.is_fault());
    assert_eq!(parsed.as_fault(), Some(&fault));
    assert_eq!(parsed.addressing().relates_to(), Some("urn:uuid:req-1"));
}

/// The identity the transport reads off a message — while unwrapping it
/// on receipt, and off its head when queueing it — is the `(origin, seq)`
/// the gossip layer decodes from the same envelope, on every committed
/// envelope and batch fuzz seed; and none where the layer decodes none.
#[test]
fn the_transport_reads_the_identity_the_layer_decodes_on_every_seed() {
    use wsg_soap::batch::{parse_wire_after, Unbundled};
    use wsg_soap::gossip::gossip_id;

    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let (mut identified, mut read_seeds) = (Vec::new(), Vec::new());
    for target in ["envelope", "batch"] {
        let mut seeds: Vec<_> =
            std::fs::read_dir(corpus.join(target)).unwrap().map(|entry| entry.unwrap().path()).collect();
        seeds.sort();
        for path in seeds {
            let bytes = std::fs::read(&path).unwrap();
            // A batch seed may hold its connection's reference first.
            let (reference, wire) = match bytes.iter().position(|&b| b == 0) {
                Some(nul) => (&bytes[..nul], &bytes[nul + 1..]),
                None => (&b""[..], &bytes[..]),
            };
            let mut reference = String::from_utf8(reference.to_vec()).unwrap();
            let wire = String::from_utf8(wire.to_vec()).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let messages = match parse_wire_after(&wire, &mut reference) {
                Ok(Unbundled::Single(Ok(id))) => vec![(wire.clone(), id)],
                Ok(Unbundled::Batch(messages)) => {
                    messages.into_iter().map(|message| (message.raw, message.gossip)).collect()
                }
                _ => continue,
            };
            for (raw, read) in messages {
                let Ok(envelope) = Envelope::parse(&raw) else { continue };
                read_seeds.push(name.clone());
                let decoded = GossipHeader::from_envelope(&envelope).map(|h| (h.origin, h.seq));
                let read = read.map(|id| (id.origin.into_owned(), id.seq));
                assert_eq!(read, decoded, "{name}: the unwrap's identity");
                let queued = gossip_id(&raw).map(|(id, _)| (id.origin.into_owned(), id.seq));
                assert_eq!(queued, decoded, "{name}: the sender's identity");
                if let Some(id) = decoded {
                    identified.push((name.clone(), id));
                }
            }
        }
    }
    let named = |seed: &str| identified.iter().filter(|(name, _)| name == seed).count();
    assert_eq!(named("seed-gossip-prefix"), 1, "{identified:?}");
    // A foreign prefix and a default namespace name the block; a lookalike
    // in another namespace does not.
    assert_eq!(named("seed-gossip-foreign-prefix"), 2, "{identified:?}");
    assert!(identified.contains(&("seed-gossip-foreign-prefix".into(), ("http://127.0.0.1:41001/gossip".into(), 14))));
    // `wsg:Origin` and `wsg:Seq` in a body are no gossip header.
    assert!(read_seeds.iter().any(|name| name == "seed-gossip-in-body"), "{read_seeds:?}");
    assert_eq!(named("seed-gossip-in-body"), 0, "{identified:?}");
    assert!(identified.len() >= 6, "{identified:?}");
}
