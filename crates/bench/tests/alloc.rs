//! Allocation budgets for the per-message hot paths, on the crate's
//! counting global allocator: serialising an envelope, unwrapping a batch
//! in the server, and a gossip node receiving a notification for the first
//! time and again. The budgets sit between what an envelope that records
//! its header blocks and payload as spans of the text costs and what
//! building their trees cost before it, so a change that re-introduces a
//! per-message header or payload tree or a per-forward payload copy fails
//! here, not in a benchmark run.

mod fixture;

use fixture::{notification_via, payload_text, subscriber_granted, Capture, SUBSCRIBER};
use ws_gossip::WsGossipNode;
use wsg_bench::timing::{count_allocs, Allocs};
use wsg_coord::GossipPolicy;
use wsg_net::{NodeId, Pcg32, Protocol};
use wsg_soap::batch::{parse_wire, write_batch, BatchItem, Unbundled};
use wsg_soap::handler::Direction;
use wsg_soap::{EndpointReference, Envelope, HandlerChain, MessageHeaders};
use wsg_xml::{Element, RawEvent, XmlReader};

use std::sync::{Mutex, MutexGuard};

/// The counters are process-global: one test measures at a time, and each
/// takes the floor over a few trials so a stray allocation on a harness
/// thread inflates individual samples, not the result.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn floor<T>(mut f: impl FnMut() -> T) -> Allocs {
    (0..10).map(|_| count_allocs(&mut f).1).min().expect("ten trials")
}

fn sample_envelope() -> Envelope {
    Envelope::request(
        MessageHeaders::request("http://node7/gossip", "urn:wsg:Notify")
            .with_message_id("urn:uuid:0001")
            .with_from(EndpointReference::new("http://node1/gossip"))
            .with_reply_to(EndpointReference::new("http://node1/gossip")),
        Element::new("op")
            .with_attr("seq", "12")
            .with_child(Element::text_node("value", "ACME 101.25 & rising")),
    )
    .with_header(
        Element::in_ns("wsg", "urn:wsg", "Gossip")
            .with_child(Element::text_node("Topic", "quotes"))
            .with_child(Element::text_node("Seq", "12")),
    )
}

#[test]
fn streaming_serialisation_allocates_less_than_tree_building() {
    let _alone = alone();
    let env = sample_envelope();
    let mut scratch = String::new();
    env.write_xml(&mut scratch); // warm the buffer to steady-state size

    let streaming = floor(|| env.write_xml(&mut scratch)).calls;
    let tree = floor(|| {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        out.push_str(&env.to_element().to_xml_string());
        out
    })
    .calls;

    assert!(streaming > 0, "counting allocator is not active");
    assert!(
        streaming * 2 < tree,
        "streaming path should allocate well under half of the tree path: \
         streaming={streaming} tree={tree}"
    );

    // And the bytes must be identical — the optimisation is transparent.
    assert_eq!(scratch, env.to_xml());
}

/// Publication `seq` as a subscriber receives it from the initiator: the
/// `CoordinationContext` and `wsg:Gossip` headers of a live fleet, and a
/// payload of `bytes` bytes.
fn notification(seq: u64, bytes: usize) -> String {
    notification_via(NodeId(1), NodeId(1), seq, bytes)
}

/// A disseminator holding the fleet's grant (fanout 5 over 7 peers), as
/// after its first `RegisterResponse`.
fn warm_subscriber(ctx: &mut Capture) -> WsGossipNode {
    let fanout = GossipPolicy::atomic_for(8).params().fanout();
    subscriber_granted(fanout, (3..10).map(NodeId), ctx)
}

/// What a first and a duplicate receive of a `bytes`-byte notification
/// ask of the allocator.
fn receive_costs(bytes: usize) -> (Allocs, Allocs) {
    let mut ctx = Capture { me: SUBSCRIBER, rng: Pcg32::new(7, 7), sent: Vec::new() };
    let mut node = warm_subscriber(&mut ctx);
    let (mut new, mut dup) = (Vec::new(), Vec::new());
    for seq in 0..10 {
        let (first, again) = (notification(seq, bytes), notification(seq, bytes));
        new.push(count_allocs(|| node.on_message(NodeId(1), first, &mut ctx)).1);
        assert_eq!(ctx.sent.len(), 5, "a first receive forwards to the grant's fanout");
        ctx.sent.clear();
        dup.push(count_allocs(|| node.on_message(NodeId(1), again, &mut ctx)).1);
        assert!(ctx.sent.is_empty(), "a duplicate is not forwarded");
    }
    assert_eq!(node.ops().len(), 10);
    assert_eq!(node.stats().parse_errors, 0);
    assert_eq!(node.ops()[3].payload.text(), payload_text(bytes));
    (new.into_iter().min().expect("ten"), dup.into_iter().min().expect("ten"))
}

#[test]
fn a_duplicate_receive_never_pays_for_the_payload() {
    let _alone = alone();
    let (_, small) = receive_costs(256);
    let (_, large) = receive_costs(16 * 1024);
    // The addressing strings and two tokenizers' scratch, whatever the
    // payload size: the node keeps the text it was handed, and a duplicate
    // is decided from `wsg:Origin` / `wsg:Seq` read in place — no header
    // tree (one `wsg:Gossip` block is ~65 calls), no owned `GossipHeader`.
    assert_eq!(small, large);
    assert!(large.calls <= 16, "{large:?}");
    assert!(large.bytes <= 2 * 1024, "{large:?}");
}

#[test]
fn a_first_receive_builds_one_tree_and_copies_the_payload_only_onto_the_wire() {
    let _alone = alone();
    let (small, _) = receive_costs(256);
    let (large, _) = receive_costs(16 * 1024);
    // Measured 86 (202 while each copy was a clone written whole), and a
    // little on top: the forward is one template serialised once, and each
    // copy is that frame with its own `To` and `MessageID` spliced in; the
    // grant is shared and its peers are sampled by reference, so only the
    // five names sent to are copied.
    assert!(small.calls <= 100, "{small:?}");
    assert!(large.calls <= 100, "{large:?}");
    // The floor under `Context::send(to, String)`: five forwards, each an
    // owned wire string of the whole envelope, plus the one delivered text
    // (requested at its escaped size, then cut back to fit) — seven
    // payload-sized requests. An eighth is a regression (building every
    // tree made about seventeen).
    let wire = notification(0, 16 * 1024).len() as u64;
    assert!(large.bytes <= 7 * wire + 48 * 1024, "{large:?} (wire {wire})");
}

/// What the first receive of `origin`'s publication, handed on by `sender`,
/// asks of a disseminator granted `fanout` of nodes 1 and 3 to 6 — and
/// how many copies it forwards.
fn forward_cost(fanout: usize, origin: NodeId, sender: NodeId) -> (Allocs, usize) {
    let mut ctx = Capture { me: SUBSCRIBER, rng: Pcg32::new(7, 7), sent: Vec::new() };
    let peers = [1, 3, 4, 5, 6].map(NodeId);
    let mut node = subscriber_granted(fanout, peers.into_iter(), &mut ctx);
    let mut forwards = 0;
    let cost = (0..10)
        .map(|seq| {
            let first = notification_via(origin, sender, seq, 256);
            ctx.sent.clear();
            let cost = count_allocs(|| node.on_message(sender, first, &mut ctx)).1;
            forwards = ctx.sent.len();
            cost
        })
        .min()
        .expect("ten");
    assert_eq!(node.ops().len(), 10);
    (cost, forwards)
}

#[test]
fn a_sampled_target_that_holds_the_message_costs_nothing() {
    let _alone = alone();
    // All five peers drawn; node 1 published it and node 3 handed it on,
    // so three copies go out...
    let (suppressed, sent) = forward_cost(5, NodeId(1), NodeId(3));
    assert_eq!(sent, 3);
    // ...for what three of five cost when strangers published and sent it:
    // no copy, no message id, not even the name of a target dropped.
    let (drawn, sent) = forward_cost(3, NodeId(8), NodeId(9));
    assert_eq!(sent, 3);
    assert_eq!(suppressed, drawn);
    let (all, sent) = forward_cost(5, NodeId(8), NodeId(9));
    assert_eq!(sent, 5);
    assert!(all.calls > drawn.calls, "{all:?} vs {drawn:?}");
}

#[test]
fn reading_the_action_or_the_must_understand_flags_builds_no_header_tree() {
    let _alone = alone();
    let wire = notification(0, 16 * 1024);
    // What every inbound message pays before the first handler sees it:
    // the action decoded, the flags recorded, nothing built.
    let mut chain = HandlerChain::new();
    let check = floor(|| {
        let envelope = Envelope::parse_owned(wire.clone()).expect("a notification parses");
        chain.process(Direction::Inbound, envelope)
    });
    // The addressing strings, the tokenizer's scratch, the copy of the
    // text (`wire.clone()`) and the block list. The `CoordinationContext`
    // tree alone would be ~100 calls more.
    assert!(check.calls <= 16, "{check:?}");
}

#[test]
fn unwrapping_a_batch_builds_no_tree() {
    let _alone = alone();
    let message = notification(0, 16 * 1024);
    let items = vec![BatchItem { target: None, xml: &message }; 13];
    let mut wire = String::new();
    write_batch(&items, &mut wire);
    let allocs = floor(|| match parse_wire(&wire) {
        Ok(Unbundled::Batch(messages)) => assert_eq!(messages.len(), 13),
        other => panic!("batch classified as {other:?}"),
    });
    // Per message: the `raw` string, and the names of the five elements the
    // shape check looks at — a payload tree alone would be more than that.
    assert!(allocs.calls <= 13 * 24, "{allocs:?}");
    assert!(allocs.bytes <= 13 * (message.len() as u64 + 1024), "{allocs:?}");
}

#[test]
fn reading_a_document_through_costs_the_tokenizer_its_scratch_and_no_more() {
    let _alone = alone();
    for bytes in [256, 16 * 1024] {
        let wire = notification(0, bytes);
        let allocs = floor(|| {
            let mut reader = XmlReader::new(&wire);
            while reader.next_raw().expect("a notification parses") != RawEvent::Start {}
            reader.skip_element().expect("a notification parses");
            reader.finish().expect("a notification parses");
        });
        // What the char-level token layer asked for (measured): the scope
        // and the open-element stack, sized at construction, and the
        // attribute list of the first tag with attributes. A faster token
        // layer may not buy its speed with an allocation per token.
        assert!(allocs.calls <= 3, "{bytes} B payload: {allocs:?}");
    }
}
