//! End-to-end middleware tests across realistic deployments: many nodes,
//! several topics, every coordination protocol, byte accounting.

use ws_gossip::scenario::{self, INITIATOR};
use ws_gossip::{Role, WsGossipNode};
use wsg_coord::{GossipPolicy, GossipProtocol};
use wsg_gossip::GossipParams;
use wsg_net::sim::{SimConfig, SimNet};
use wsg_net::NodeId;
use wsg_xml::Element;

fn saturating_network(n_subscribers: usize, seed: u64) -> SimNet<WsGossipNode> {
    // Saturating fanout => deterministic flood => exact assertions hold.
    let mut net = SimNet::new(SimConfig::default().seed(seed));
    net.add_nodes(2 + n_subscribers, |id| match id.index() {
        0 => WsGossipNode::coordinator(id).with_policy(GossipPolicy::new(GossipParams::new(
            n_subscribers + 2,
            8,
        ))),
        1 => WsGossipNode::initiator(id, NodeId(0)),
        i if i < 2 + n_subscribers / 2 => WsGossipNode::disseminator(id, NodeId(0)),
        _ => WsGossipNode::consumer(id, NodeId(0)),
    });
    net.set_size_fn(Box::new(|xml: &String| xml.len()));
    net.start();
    net
}

#[test]
fn thirty_node_dissemination_completes() {
    let mut net = saturating_network(30, 1);
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    scenario::notify(&mut net, "t", Element::text_node("op", "x"));
    net.run_to_quiescence();
    assert_eq!(scenario::coverage(&net, 1), 1.0);
}

#[test]
fn topics_are_isolated_interactions() {
    let mut net = saturating_network(10, 2);
    scenario::subscribe_all(&mut net, "alpha");
    scenario::subscribe_all(&mut net, "beta");
    net.run_to_quiescence();
    scenario::activate(&mut net, "alpha");
    scenario::activate(&mut net, "beta");
    net.run_to_quiescence();
    scenario::notify(&mut net, "alpha", Element::text_node("op", "a"));
    scenario::notify(&mut net, "beta", Element::text_node("op", "b"));
    net.run_to_quiescence();

    let ctx_alpha = net.node(INITIATOR).context_for("alpha").unwrap().identifier().to_string();
    let ctx_beta = net.node(INITIATOR).context_for("beta").unwrap().identifier().to_string();
    assert_ne!(ctx_alpha, ctx_beta);

    for id in net.node_ids() {
        let node = net.node(id);
        if matches!(node.role(), Role::Disseminator | Role::Consumer) {
            let topics: std::collections::HashSet<String> =
                node.distinct_ops().iter().map(|op| op.topic.clone()).collect();
            assert!(topics.contains("alpha") && topics.contains("beta"), "{id}: {topics:?}");
        }
    }
}

#[test]
fn every_gossip_protocol_type_activates() {
    for protocol in [
        GossipProtocol::Push,
        GossipProtocol::LazyPush,
        GossipProtocol::Pull,
        GossipProtocol::PushPull,
        GossipProtocol::AntiEntropy,
    ] {
        let mut net = saturating_network(6, 3);
        scenario::subscribe_all(&mut net, "t");
        net.run_to_quiescence();
        scenario::activate_with(&mut net, protocol, "t");
        net.run_to_quiescence();
        let ctx = net.node(INITIATOR).context_for("t");
        assert!(ctx.is_some(), "{protocol:?} failed to activate");
        assert_eq!(ctx.unwrap().protocol().unwrap(), protocol);
    }
}

#[test]
fn notifications_survive_moderate_loss() {
    // Real gossip parameters + retransmission-free push: with loss the
    // epidemic redundancy is what keeps coverage high.
    let mut net = SimNet::new(SimConfig::default().seed(4).drop_probability(0.05));
    let subscribers = 28;
    net.add_nodes(2 + subscribers, |id| match id.index() {
        0 => WsGossipNode::coordinator(id)
            .with_policy(GossipPolicy::new(GossipParams::new(8, 10))),
        1 => WsGossipNode::initiator(id, NodeId(0)),
        i if i < 2 + subscribers - 4 => WsGossipNode::disseminator(id, NodeId(0)),
        _ => WsGossipNode::consumer(id, NodeId(0)),
    });
    net.start();
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    scenario::notify(&mut net, "t", Element::text_node("op", "x"));
    net.run_to_quiescence();
    assert!(
        scenario::coverage(&net, 1) >= 0.9,
        "coverage {} too low under 5% loss",
        scenario::coverage(&net, 1)
    );
}

#[test]
fn late_subscriber_gets_later_messages() {
    let mut net = saturating_network(8, 5);
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    scenario::notify(&mut net, "t", Element::text_node("op", "first"));
    net.run_to_quiescence();

    // A new consumer appears and subscribes.
    let newcomer = net.add_node(WsGossipNode::consumer(NodeId(10), NodeId(0)));
    net.invoke(newcomer, |node, ctx| node.subscribe("t", ctx));
    net.run_to_quiescence();

    scenario::notify(&mut net, "t", Element::text_node("op", "second"));
    net.run_to_quiescence();

    let ops = net.node(newcomer).distinct_ops();
    // It missed "first" (subscribed late) but...
    assert_eq!(ops.len(), 1, "got exactly the post-subscription message");
    assert_eq!(ops[0].payload.text(), "second");
}

#[test]
fn soap_bytes_flow_on_every_hop() {
    let mut net = saturating_network(6, 6);
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    let before = net.stats().bytes_sent;
    scenario::notify(&mut net, "t", Element::text_node("op", "x".repeat(500)));
    net.run_to_quiescence();
    let delta = net.stats().bytes_sent - before;
    // Each forwarded copy carries the 500-byte payload plus SOAP framing.
    assert!(delta > 3_000, "only {delta} bytes for a fanned-out 500B payload");
    // And no parse errors anywhere: every byte on the wire was valid SOAP.
    for id in net.node_ids() {
        assert_eq!(net.node(id).stats().parse_errors, 0);
    }
}

#[test]
fn initiator_crash_after_publish_does_not_stop_dissemination() {
    let mut net = saturating_network(12, 7);
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    scenario::notify(&mut net, "t", Element::text_node("op", "x"));
    // The copies are in flight; the initiator dies immediately after.
    net.crash(INITIATOR);
    net.run_to_quiescence();
    assert_eq!(
        scenario::coverage(&net, 1),
        1.0,
        "epidemic must complete without its origin"
    );
}

#[test]
fn unsubscribed_node_stops_receiving() {
    let mut net = saturating_network(8, 8);
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    scenario::notify(&mut net, "t", Element::text_node("op", "before"));
    net.run_to_quiescence();

    // The last consumer opts out.
    let leaver = NodeId(9);
    assert_eq!(net.node(leaver).role(), Role::Consumer);
    net.invoke(leaver, |node, ctx| node.unsubscribe("t", ctx));
    net.run_to_quiescence();

    scenario::notify(&mut net, "t", Element::text_node("op", "after"));
    net.run_to_quiescence();

    let payloads: Vec<String> = net
        .node(leaver)
        .distinct_ops()
        .iter()
        .map(|op| op.payload.text())
        .collect();
    assert_eq!(payloads, ["before".to_string()], "got {payloads:?}");
    // Everyone else still gets both.
    for id in net.node_ids() {
        let node = net.node(id);
        if id != leaver && matches!(node.role(), Role::Disseminator | Role::Consumer) {
            assert_eq!(node.distinct_ops().len(), 2, "{id}");
        }
    }
}

#[test]
fn self_driving_deployment_runs_without_external_invokes() {
    use ws_gossip::WsGossipNode as Node;
    use wsg_net::SimDuration;
    let coordinator = NodeId(0);
    const TICKS: usize = 120;
    let ticks: Vec<Element> =
        (0..TICKS).map(|i| Element::text_node("tick", i.to_string())).collect();
    let mut net = SimNet::new(SimConfig::default().seed(10));
    net.add_nodes(7, |id| match id.index() {
        0 => Node::coordinator(id)
            .with_policy(GossipPolicy::new(GossipParams::new(8, 6))),
        1 => Node::initiator(id, coordinator).with_publish_schedule(
            "t",
            ticks.clone(),
            SimDuration::from_millis(100),
        ),
        i if i < 5 => Node::disseminator(id, coordinator).with_auto_subscribe("t"),
        _ => Node::consumer(id, coordinator).with_auto_subscribe("t"),
    });
    net.start(); // everything from here is timer-driven
    net.run_to_quiescence();
    assert_eq!(scenario::coverage(&net, TICKS), 1.0, "all scheduled ticks everywhere");
    // The text log is control plane only: after >= 100 deliveries a
    // subscriber's log holds its subscribe and the acknowledgement, while
    // `ops()` and the delivery counter record every delivery.
    for id in (2..7).map(NodeId) {
        let node = net.node(id);
        assert!(node.ops().len() >= TICKS, "{id}");
        assert_eq!(node.stats().ops_delivered as usize, node.ops().len(), "{id}");
        assert_eq!(node.events().len(), 2, "{id}: {:?}", node.events());
    }
}

#[test]
fn fifo_delivery_orders_per_origin() {
    use ws_gossip::WsGossipNode as Node;
    // Wide latency spread so copies of later seqs can overtake earlier ones.
    let mut net = SimNet::new(
        SimConfig::default()
            .seed(11)
            .latency(wsg_net::LatencyModel::uniform_millis(1, 50)),
    );
    net.add_nodes(10, |id| match id.index() {
        0 => Node::coordinator(id).with_policy(GossipPolicy::new(GossipParams::new(10, 6))),
        1 => Node::initiator(id, NodeId(0)),
        i if i < 6 => Node::disseminator(id, NodeId(0)).with_fifo_delivery(),
        _ => Node::consumer(id, NodeId(0)).with_fifo_delivery(),
    });
    net.start();
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    for i in 0..10 {
        scenario::notify(&mut net, "t", Element::text_node("op", i.to_string()));
    }
    net.run_to_quiescence();
    for id in net.node_ids() {
        let node = net.node(id);
        if !matches!(node.role(), Role::Disseminator | Role::Consumer) {
            continue;
        }
        let seqs: Vec<u64> = node.ops().iter().map(|op| op.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "{id} delivered out of order: {seqs:?}");
        assert_eq!(seqs.len(), 10, "{id} missed messages");
    }
}

#[test]
fn lapsed_subscription_lease_ages_out_a_crashed_subscriber() {
    use ws_gossip::WsGossipNode as Node;
    use wsg_net::{SimDuration, SimTime};
    let ttl = SimDuration::from_millis(500);
    let mut net = SimNet::new(SimConfig::default().seed(12));
    net.add_nodes(6, |id| match id.index() {
        0 => Node::coordinator(id).with_policy(GossipPolicy::new(GossipParams::new(8, 6))),
        1 => Node::initiator(id, NodeId(0)),
        i if i < 5 => Node::disseminator(id, NodeId(0)).with_subscription_ttl(ttl),
        _ => Node::consumer(id, NodeId(0)).with_subscription_ttl(ttl),
    });
    net.start();
    scenario::subscribe_all(&mut net, "t");
    net.run_until(SimTime::from_millis(100));
    assert_eq!(net.node(NodeId(0)).subscriber_count("t", net.now()), 4);

    // One subscriber dies: it stops renewing.
    net.crash(NodeId(5));
    net.run_until(SimTime::from_secs(3));
    assert_eq!(
        net.node(NodeId(0)).subscriber_count("t", net.now()),
        3,
        "lapsed lease must age out"
    );
    // The survivors kept renewing through 6 half-lives.
    scenario::activate(&mut net, "t");
    net.run_until(SimTime::from_secs(4));
    scenario::notify(&mut net, "t", Element::text_node("op", "x"));
    net.run_until(SimTime::from_secs(5));
    for i in 2..5 {
        assert!(
            !net.node(NodeId(i)).distinct_ops().is_empty(),
            "renewing subscriber {i} must still receive"
        );
    }
}

#[test]
fn two_initiators_disseminate_independently() {
    use ws_gossip::WsGossipNode as Node;
    // Node 1 and node 2 are both initiators with their own topics.
    let mut net = SimNet::new(SimConfig::default().seed(13));
    net.add_nodes(11, |id| match id.index() {
        0 => Node::coordinator(id).with_policy(GossipPolicy::new(GossipParams::new(12, 6))),
        1 | 2 => Node::initiator(id, NodeId(0)),
        i if i < 7 => Node::disseminator(id, NodeId(0)),
        _ => Node::consumer(id, NodeId(0)),
    });
    net.start();
    scenario::subscribe_all(&mut net, "stocks");
    scenario::subscribe_all(&mut net, "weather");
    net.run_to_quiescence();
    net.invoke(NodeId(1), |n, ctx| n.activate(GossipProtocol::Push, "stocks", ctx));
    net.invoke(NodeId(2), |n, ctx| n.activate(GossipProtocol::Push, "weather", ctx));
    net.run_to_quiescence();
    net.invoke(NodeId(1), |n, ctx| n.notify("stocks", Element::text_node("op", "s1"), ctx));
    net.invoke(NodeId(2), |n, ctx| n.notify("weather", Element::text_node("op", "w1"), ctx));
    net.invoke(NodeId(1), |n, ctx| n.notify("stocks", Element::text_node("op", "s2"), ctx));
    net.run_to_quiescence();

    // Distinct contexts were created for the two interactions.
    let ctx_a = net.node(NodeId(1)).context_for("stocks").unwrap().identifier().to_string();
    let ctx_b = net.node(NodeId(2)).context_for("weather").unwrap().identifier().to_string();
    assert_ne!(ctx_a, ctx_b);

    for id in net.node_ids() {
        let node = net.node(id);
        if !matches!(node.role(), Role::Disseminator | Role::Consumer) {
            continue;
        }
        let ops = node.distinct_ops();
        assert_eq!(ops.len(), 3, "{id} got {}", ops.len());
        let origins: std::collections::HashSet<&str> =
            ops.iter().map(|op| op.origin.as_str()).collect();
        assert_eq!(origins.len(), 2, "ops from both initiators");
    }
    // Per-origin seq numbering is independent.
    let any = net.node(NodeId(3));
    let stock_seqs: Vec<u64> = any
        .distinct_ops()
        .iter()
        .filter(|op| op.topic == "stocks")
        .map(|op| op.seq)
        .collect();
    assert_eq!(stock_seqs.len(), 2);
}

#[test]
fn wildcard_subscription_spans_topics() {
    use ws_gossip::WsGossipNode as Node;
    let mut net = SimNet::new(SimConfig::default().seed(14));
    net.add_nodes(7, |id| match id.index() {
        0 => Node::coordinator(id).with_policy(GossipPolicy::new(GossipParams::new(8, 6))),
        1 => Node::initiator(id, NodeId(0)),
        _ => Node::consumer(id, NodeId(0)),
    });
    net.start();
    // n2 wants everything under market/, n3 only NYSE, n4 everything,
    // n5 a single-level wildcard, n6 an unrelated subtree.
    let subs: &[(usize, &str)] = &[
        (2, "market/**"),
        (3, "market/nyse"),
        (4, "**"),
        (5, "market/*"),
        (6, "weather/**"),
    ];
    for (node, filter) in subs {
        let filter = filter.to_string();
        net.invoke(NodeId(*node), move |n, ctx| n.subscribe(&filter, ctx));
    }
    net.run_to_quiescence();

    for topic in ["market/nyse", "market/lse"] {
        net.invoke(NodeId(1), move |n, ctx| {
            n.activate(GossipProtocol::Push, topic, ctx)
        });
    }
    net.run_to_quiescence();
    net.invoke(NodeId(1), |n, ctx| {
        n.notify("market/nyse", Element::text_node("op", "nyse-tick"), ctx)
    });
    net.invoke(NodeId(1), |n, ctx| {
        n.notify("market/lse", Element::text_node("op", "lse-tick"), ctx)
    });
    net.run_to_quiescence();

    let got = |i: usize| -> Vec<String> {
        let mut topics: Vec<String> = net
            .node(NodeId(i))
            .distinct_ops()
            .iter()
            .map(|op| op.topic.clone())
            .collect();
        topics.sort();
        topics
    };
    assert_eq!(got(2), ["market/lse", "market/nyse"], "market/** sees both");
    assert_eq!(got(3), ["market/nyse"], "exact filter sees one");
    assert_eq!(got(4), ["market/lse", "market/nyse"], "** sees both");
    assert_eq!(got(5), ["market/lse", "market/nyse"], "market/* sees both");
    assert!(got(6).is_empty(), "weather/** sees neither");
}

/// A notification for the initiator's active context on topic `t`, as a
/// foreign SOAP stack might write it: `body` verbatim inside `env:Body`,
/// `root_attrs` verbatim on `env:Envelope`.
fn foreign_notification(
    net: &SimNet<WsGossipNode>,
    to: NodeId,
    seq: u64,
    root_attrs: &str,
    body: &str,
) -> String {
    use ws_gossip::endpoint::endpoint_of;
    let context = net.node(INITIATOR).context_for("t").expect("context active").clone();
    let gossip = ws_gossip::GossipHeader {
        context_id: context.identifier().to_string(),
        topic: "t".into(),
        origin: endpoint_of(INITIATOR),
        seq,
        round: 1,
    };
    let template = wsg_soap::Envelope::request(
        wsg_soap::MessageHeaders::request(endpoint_of(to), ws_gossip::actions::NOTIFY)
            .with_message_id(format!("urn:uuid:foreign-{seq}")),
        Element::new("placeholder"),
    )
    .with_header(context.to_header())
    .with_header(gossip.to_element())
    .to_xml();
    assert!(template.contains("<placeholder/>"));
    template
        .replacen("<env:Envelope", &format!("<env:Envelope{root_attrs}"), 1)
        .replace("<placeholder/>", body)
}

#[test]
fn a_foreign_payload_reaches_every_subscriber_as_it_was_written() {
    let mut net = saturating_network(8, 11);
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    scenario::notify(&mut net, "t", Element::text_node("op", "warm-up")); // seq 0
    net.run_to_quiescence();

    let entry = NodeId(2); // a disseminator
    let payload = "k=\"a&#x26;b\"><![CDATA[1 < 2]]> &#x26; more</app:op>";
    // seq 1 leans on a prefix bound on env:Envelope (forwarded from its
    // tree); seq 2 declares it itself (forwarded as the bytes it came in).
    let leaning = foreign_notification(
        &net,
        entry,
        1,
        " xmlns:app=\"urn:app\"",
        &format!("<app:op {payload}"),
    );
    let contained = foreign_notification(
        &net,
        entry,
        2,
        "",
        &format!("<app:op xmlns:app=\"urn:app\" {payload}"),
    );
    net.send_external(INITIATOR, entry, leaning);
    net.send_external(INITIATOR, entry, contained);
    net.run_to_quiescence();

    for id in net.node_ids() {
        let node = net.node(id);
        if !matches!(node.role(), Role::Disseminator | Role::Consumer) {
            continue;
        }
        assert_eq!(node.stats().parse_errors, 0, "{id}");
        for seq in [1, 2] {
            let op = node
                .distinct_ops()
                .into_iter()
                .find(|op| op.seq == seq)
                .unwrap_or_else(|| panic!("{id} never delivered seq {seq}"));
            assert_eq!(op.payload.name().namespace(), Some("urn:app"), "{id} seq {seq}");
            assert_eq!(op.payload.attr("k"), Some("a&b"), "{id} seq {seq}");
            assert_eq!(op.payload.text(), "1 < 2 & more", "{id} seq {seq}");
        }
    }
}

#[test]
fn a_malformed_body_on_a_duplicate_is_a_parse_error_and_goes_nowhere() {
    let mut net = saturating_network(8, 12);
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    scenario::notify(&mut net, "t", Element::text_node("op", "x")); // seq 0
    net.run_to_quiescence();

    let entry = NodeId(2);
    let delivered = net.node(entry).ops().len();
    let duplicates = net.node(entry).layer_stats().unwrap().duplicates_suppressed;
    let sent = net.stats().sent;
    // Same (origin, seq) as the publication everyone has seen: only the
    // header would be needed to drop it — the body is checked all the same.
    let broken = foreign_notification(&net, entry, 0, "", "<op>&nope;</op>");
    net.send_external(INITIATOR, entry, broken);
    net.run_to_quiescence();

    assert_eq!(net.node(entry).stats().parse_errors, 1);
    assert_eq!(net.node(entry).ops().len(), delivered);
    // Unparseable: it never reached the gossip layer's duplicate count.
    assert_eq!(net.node(entry).layer_stats().unwrap().duplicates_suppressed, duplicates);
    assert_eq!(net.stats().sent, sent + 1, "only the injected message moved");
}

/// A network where publication seq 0 on topic `t` has reached everyone,
/// and the disseminator the following tests inject duplicates of it into.
fn network_after_one_publication(seed: u64) -> (SimNet<WsGossipNode>, NodeId) {
    let mut net = saturating_network(8, seed);
    scenario::subscribe_all(&mut net, "t");
    net.run_to_quiescence();
    scenario::activate(&mut net, "t");
    net.run_to_quiescence();
    scenario::notify(&mut net, "t", Element::text_node("op", "x")); // seq 0
    net.run_to_quiescence();
    (net, NodeId(2))
}

#[test]
fn a_duplicate_nobody_may_ignore_is_a_fault_not_a_silent_drop() {
    let (mut net, entry) = network_after_one_publication(13);
    let faults = net.node(entry).stats().faults;
    let duplicates = net.node(entry).layer_stats().unwrap().duplicates_suppressed;
    let sent = net.stats().sent;
    // The gossip header alone would drop it as seen — but it carries a
    // block no handler understands, flagged mustUnderstand.
    let flagged = foreign_notification(&net, entry, 0, "", "<op>x</op>").replace(
        "</env:Header>",
        "<x:Lock xmlns:x=\"urn:x\" env:mustUnderstand=\"1\"/></env:Header>",
    );
    net.send_external(INITIATOR, entry, flagged);
    net.run_to_quiescence();

    assert_eq!(net.node(entry).stats().faults, faults + 1);
    assert_eq!(net.node(entry).stats().parse_errors, 0);
    assert_eq!(net.node(entry).layer_stats().unwrap().duplicates_suppressed, duplicates);
    assert_eq!(net.stats().sent, sent + 1, "only the injected message moved");
}

#[test]
fn a_duplicate_is_recognised_whatever_prefix_spells_its_gossip_header() {
    let (mut net, entry) = network_after_one_publication(14);
    let delivered = net.node(entry).ops().len();
    let duplicates = net.node(entry).layer_stats().unwrap().duplicates_suppressed;
    let seen = net.node(entry).layer_stats().unwrap();
    let sent = net.stats().sent;
    // The same (origin, seq) under another prefix, and as the default
    // namespace of the block: names are compared resolved, not as written.
    let plain = foreign_notification(&net, entry, 0, "", "<op>x</op>");
    let prefixed = plain.replace("wsg:", "g:").replace("xmlns:wsg=", "xmlns:g=");
    let defaulted = plain
        .replace("<wsg:Gossip xmlns:wsg=", "<Gossip xmlns=")
        .replace("</wsg:Gossip>", "</Gossip>");
    let block = defaulted.find("<Gossip").unwrap()..defaulted.find("</Gossip>").unwrap();
    let defaulted = format!(
        "{}{}{}",
        &defaulted[..block.start],
        defaulted[block.clone()].replace("wsg:", ""),
        &defaulted[block.end..]
    );
    assert!(prefixed.contains("<g:Seq>0</g:Seq>") && defaulted.contains("<Seq>0</Seq>"));
    net.send_external(INITIATOR, entry, prefixed);
    net.send_external(INITIATOR, entry, defaulted);
    net.run_to_quiescence();

    assert_eq!(net.node(entry).stats().parse_errors, 0);
    assert_eq!(net.node(entry).stats().faults, 0);
    assert_eq!(net.node(entry).ops().len(), delivered);
    let after = net.node(entry).layer_stats().unwrap();
    assert_eq!(after.duplicates_suppressed, duplicates + 2);
    assert_eq!(after.forwards_sent, seen.forwards_sent);
    assert_eq!(net.stats().sent, sent + 2, "only the injected messages moved");
}
