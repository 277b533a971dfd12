//! The `wsg:Gossip` SOAP header block.
//!
//! Travels with every disseminated notification. Carries the gossip
//! identity of the message — originating endpoint plus sequence number —
//! and the hop count (`round`). Deliberately **not** marked
//! `mustUnderstand`: a Consumer with no gossip layer must be able to
//! process the notification unchanged (paper §3, "completely unchanged and
//! unaffected").

use std::borrow::Cow;

use wsg_coord::WSGOSSIP_NS;
use wsg_xml::{Element, QName};

// Interned names for the header vocabulary: every disseminated message
// serialises these, so cloning them must not allocate.
static GOSSIP: QName = QName::interned(WSGOSSIP_NS, "wsg", "Gossip");
static CONTEXT: QName = QName::interned(WSGOSSIP_NS, "wsg", "Context");
static TOPIC: QName = QName::interned(WSGOSSIP_NS, "wsg", "Topic");
static ORIGIN: QName = QName::interned(WSGOSSIP_NS, "wsg", "Origin");
static SEQ: QName = QName::interned(WSGOSSIP_NS, "wsg", "Seq");
static ROUND: QName = QName::interned(WSGOSSIP_NS, "wsg", "Round");

/// The decoded `wsg:Gossip` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipHeader {
    /// Coordination-context identifier this message belongs to.
    pub context_id: String,
    /// Topic being disseminated.
    pub topic: String,
    /// Endpoint of the originating (Initiator) node.
    pub origin: String,
    /// Per-origin sequence number.
    pub seq: u64,
    /// Hop count: 0 as published, incremented at each forward.
    pub round: u32,
}

impl GossipHeader {
    /// Encode as the SOAP header element.
    pub fn to_element(&self) -> Element {
        let mut header = Element::with_name(GOSSIP.clone());
        header.push_child(Element::with_name(CONTEXT.clone()).with_text(self.context_id.clone()));
        header.push_child(Element::with_name(TOPIC.clone()).with_text(self.topic.clone()));
        header.push_child(Element::with_name(ORIGIN.clone()).with_text(self.origin.clone()));
        header.push_child(Element::with_name(SEQ.clone()).with_text(self.seq.to_string()));
        header.push_child(Element::with_name(ROUND.clone()).with_text(self.round.to_string()));
        header
    }

    /// Decode from the SOAP header element, if it is one: a `wsg:Gossip`
    /// with all five children, `Seq` and `Round` numbers.
    pub fn from_element(element: &Element) -> Option<GossipHeader> {
        if !element.name().matches(Some(WSGOSSIP_NS), "Gossip") {
            return None;
        }
        Some(GossipHeader {
            context_id: element.child_ns(WSGOSSIP_NS, "Context")?.text(),
            topic: element.child_ns(WSGOSSIP_NS, "Topic")?.text(),
            origin: element.child_ns(WSGOSSIP_NS, "Origin")?.text(),
            seq: element.child_ns(WSGOSSIP_NS, "Seq")?.text().parse().ok()?,
            round: element.child_ns(WSGOSSIP_NS, "Round")?.text().parse().ok()?,
        })
    }

    /// Find and decode the gossip header of an envelope — what
    /// [`GossipHeader::from_element`] makes of its first `wsg:Gossip`
    /// block, read off the bytes the block arrived as without building it.
    pub fn from_envelope(envelope: &wsg_soap::Envelope) -> Option<GossipHeader> {
        GossipHeaderRef::from_envelope(envelope).map(|header| header.to_header())
    }

    /// A copy of this header with the hop count incremented.
    pub fn next_round(&self) -> GossipHeader {
        GossipHeader { round: self.round + 1, ..self.clone() }
    }
}

/// The `wsg:Gossip` header of a parsed envelope, read off the bytes it
/// arrived as: a duplicate is decided from this, before a tree or a
/// [`GossipHeader`] is built for the message.
#[derive(Debug)]
pub(crate) struct GossipHeaderRef<'a> {
    context_id: Cow<'a, str>,
    topic: Cow<'a, str>,
    pub(crate) origin: Cow<'a, str>,
    pub(crate) seq: u64,
    round: u32,
}

impl<'a> GossipHeaderRef<'a> {
    /// What [`GossipHeader::from_envelope`] decodes, with the text still
    /// borrowed from the envelope.
    pub(crate) fn from_envelope(envelope: &'a wsg_soap::Envelope) -> Option<Self> {
        let [context_id, topic, origin, seq, round] = envelope.header_texts(
            WSGOSSIP_NS,
            "Gossip",
            ["Context", "Topic", "Origin", "Seq", "Round"],
        )?;
        Some(GossipHeaderRef {
            context_id: context_id?,
            topic: topic?,
            origin: origin?,
            seq: seq?.parse().ok()?,
            round: round?.parse().ok()?,
        })
    }

    /// The owned header, for a message that is going somewhere.
    pub(crate) fn to_header(&self) -> GossipHeader {
        GossipHeader {
            context_id: self.context_id.to_string(),
            topic: self.topic.to_string(),
            origin: self.origin.to_string(),
            seq: self.seq,
            round: self.round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GossipHeader {
        GossipHeader {
            context_id: "urn:ws-gossip:ctx:0".into(),
            topic: "quotes".into(),
            origin: "http://node1/gossip".into(),
            seq: 42,
            round: 3,
        }
    }

    #[test]
    fn element_roundtrip() {
        let header = sample();
        assert_eq!(GossipHeader::from_element(&header.to_element()), Some(header));
    }

    #[test]
    fn envelope_roundtrip() {
        let env = wsg_soap::Envelope::request(
            wsg_soap::MessageHeaders::request("http://x", "urn:op"),
            wsg_xml::Element::new("op"),
        )
        .with_header(sample().to_element());
        let wire = env.to_xml();
        let parsed = wsg_soap::Envelope::parse(&wire).unwrap();
        assert_eq!(GossipHeader::from_envelope(&parsed), Some(sample()));
    }

    #[test]
    fn next_round_increments_only_round() {
        let header = sample();
        let next = header.next_round();
        assert_eq!(next.round, 4);
        // `(origin, seq)` — the dedup key — names the same message.
        assert_eq!((&next.origin, next.seq), (&header.origin, header.seq));
    }

    /// What every decoder makes of `block`: the tree one, and the envelope
    /// one over a block held as a tree and as the bytes it arrived in.
    fn decoded(block: Element) -> Option<GossipHeader> {
        let built = wsg_soap::Envelope::request(wsg_soap::MessageHeaders::new(), Element::new("op"))
            .with_header(block.clone());
        let parsed = wsg_soap::Envelope::parse(&built.to_xml()).unwrap();
        let header = GossipHeader::from_element(&block);
        assert_eq!(GossipHeader::from_envelope(&built), header);
        assert_eq!(GossipHeader::from_envelope(&parsed), header);
        header
    }

    #[test]
    fn foreign_header_ignored() {
        assert_eq!(decoded(Element::in_ns("x", "urn:other", "Gossip")), None);
    }

    #[test]
    fn malformed_header_rejected() {
        let mut el = sample().to_element();
        el.child_mut("Seq").unwrap().set_text("not-a-number");
        assert_eq!(decoded(el), None);
        let mut el = sample().to_element();
        assert_eq!(el.remove_children("Topic"), 1);
        assert_eq!(decoded(el), None);
        assert_eq!(decoded(sample().to_element()), Some(sample()));
    }
}
