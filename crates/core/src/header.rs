//! The `wsg:Gossip` header as the gossip layer writes and reads it. The
//! codec is [`wsg_soap::gossip::GossipHeader`]; these tests pin that what
//! the layer puts on a notification, whether held as a tree or sent as
//! bytes, reads back as the header it wrote, and that a foreign or
//! malformed block reads as none.

mod tests {
    use std::borrow::Cow;

    use wsg_soap::gossip::GossipHeader;
    use wsg_soap::{Envelope, MessageHeaders};
    use wsg_xml::Element;

    fn sample() -> GossipHeader<'static> {
        GossipHeader {
            context_id: Cow::Borrowed("urn:ws-gossip:ctx:0"),
            topic: Cow::Borrowed("quotes"),
            origin: Cow::Borrowed("http://node1/gossip"),
            seq: 42,
            round: 3,
        }
    }

    /// An envelope built with `block` as its one header block.
    fn built(block: Element) -> Envelope {
        Envelope::request(MessageHeaders::request("http://x", "urn:op"), Element::new("op")).with_header(block)
    }

    /// What the decoder makes of `block`, held as a tree and as the bytes
    /// it arrives in; the two must agree.
    fn decoded(block: Element) -> Option<GossipHeader<'static>> {
        let built = built(block);
        let parsed = Envelope::parse(&built.to_xml()).unwrap();
        let header = GossipHeader::from_envelope(&built).map(owned);
        assert_eq!(GossipHeader::from_envelope(&parsed).map(owned), header);
        header
    }

    fn owned(header: GossipHeader<'_>) -> GossipHeader<'static> {
        GossipHeader {
            context_id: Cow::Owned(header.context_id.into_owned()),
            topic: Cow::Owned(header.topic.into_owned()),
            origin: Cow::Owned(header.origin.into_owned()),
            seq: header.seq,
            round: header.round,
        }
    }

    #[test]
    fn element_roundtrip() {
        let env = built(sample().to_element());
        assert_eq!(GossipHeader::from_envelope(&env), Some(sample()));
    }

    #[test]
    fn envelope_roundtrip() {
        let wire = built(sample().to_element()).to_xml();
        let parsed = Envelope::parse(&wire).unwrap();
        assert_eq!(GossipHeader::from_envelope(&parsed), Some(sample()));
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
