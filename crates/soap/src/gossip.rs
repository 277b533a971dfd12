//! The gossip identity of an envelope, read without decoding it.
//!
//! Every disseminated notification carries a `wsg:Gossip` header block
//! whose `wsg:Origin` and `wsg:Seq` name it: the key the gossip layer
//! dedups on. The transport reads that key off the tokenizer in passes it
//! makes anyway — the server's unwrap while it checks each message's
//! shape (see [`crate::batch`]), the sender as it queues a message, up to
//! `env:Body` — so it can tell that a peer already holds a notification
//! without parsing the message as the node does.

use std::borrow::Cow;

use wsg_net::cov;
use wsg_xml::{Element, RawEvent, XmlError, XmlReader};

use crate::envelope::{read_child_texts, read_root};
use crate::{Envelope, SOAP_ENV_NS};

/// The WS-Gossip extension namespace.
pub const WSGOSSIP_NS: &str = "urn:ws-gossip:2008";

/// The children of a `wsg:Gossip` block, in the order the layer writes
/// them.
const FIELDS: [&str; 5] = ["Context", "Topic", "Origin", "Seq", "Round"];

/// A gossip notification's identity: the `wsg:Origin` text and `wsg:Seq`
/// number of an envelope's first `wsg:Gossip` header block, when the
/// gossip layer decodes that block (all five children, `Seq` a `u64`,
/// `Round` a `u32`). Two envelopes with equal identities are one
/// notification to the layer: the second is a duplicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipId<'a> {
    /// The originating endpoint, as text (references resolved).
    pub origin: Cow<'a, str>,
    /// The origin's sequence number.
    pub seq: u64,
}

impl GossipId<'_> {
    /// The identity with its origin owned.
    pub fn into_owned(self) -> GossipId<'static> {
        GossipId { origin: Cow::Owned(self.origin.into_owned()), seq: self.seq }
    }
}

/// The identity a block's five texts, in [`FIELDS`] order, make — none
/// unless the layer would decode them.
fn from_texts(texts: [Option<Cow<'_, str>>; 5]) -> Option<GossipId<'_>> {
    let [context, topic, origin, seq, round] = texts;
    context?;
    topic?;
    round?.parse::<u32>().ok()?;
    Some(GossipId { origin: origin?, seq: seq?.parse().ok()? })
}

impl Envelope {
    /// The gossip identity of this envelope: a namespace lookup of its
    /// first `wsg:Gossip` block.
    pub fn gossip_id(&self) -> Option<GossipId<'_>> {
        from_texts(self.header_texts(WSGOSSIP_NS, "Gossip", FIELDS)?)
    }
}

/// The identity of an envelope's tree: its first `env:Header`'s first
/// `wsg:Gossip` child, looked up element by element — the reference the
/// tokenizer reads are tested against.
pub(crate) fn of_tree(envelope: &Element) -> Option<GossipId<'static>> {
    let block = envelope.child_ns(SOAP_ENV_NS, "Header")?.child_ns(WSGOSSIP_NS, "Gossip")?;
    from_texts(FIELDS.map(|field| block.child_ns(WSGOSSIP_NS, field).map(|c| Cow::Owned(c.text()))))
}

/// Go through the `env:Header` just started, consuming through its end
/// tag, and return the identity of its first `wsg:Gossip` block. Names
/// are resolved by namespace, so any prefix — or a default namespace —
/// reads the same.
pub(crate) fn read_header<'a>(
    reader: &mut XmlReader<'a>,
) -> Result<Option<GossipId<'a>>, XmlError> {
    let mut found = None;
    while let Some(block) = next_block(reader)? {
        if found.is_none() && block {
            cov!();
            found = Some(read_block(reader)?);
        } else {
            reader.skip_element()?;
        }
    }
    Ok(found.flatten())
}

/// Step to the next child of the open `env:Header`: whether it is a
/// `wsg:Gossip` block, or `None` at the header's end tag.
fn next_block(reader: &mut XmlReader<'_>) -> Result<Option<bool>, XmlError> {
    loop {
        match reader.next_raw()? {
            RawEvent::Start => {
                return Ok(Some(reader.element_name() == (Some(WSGOSSIP_NS), "Gossip")));
            }
            RawEvent::End | RawEvent::Eof => return Ok(None),
            _ => {}
        }
    }
}

/// The identity of the `wsg:Gossip` block just started, consuming
/// through its end tag.
fn read_block<'a>(reader: &mut XmlReader<'a>) -> Result<Option<GossipId<'a>>, XmlError> {
    let id = from_texts(read_child_texts(reader, WSGOSSIP_NS, FIELDS)?);
    if id.is_none() {
        // A gossip block the layer would not decode.
        cov!();
    }
    Ok(id)
}

/// The gossip identity of the serialised envelope `xml`, read off its
/// head, and how many leading bytes of `xml` decided it: the tokenizer goes
/// no further than the end of the first `wsg:Gossip` block, so any text
/// that starts with those bytes has this identity too. `None` when there
/// is none to read before `env:Body` — a message without a gossip block,
/// one the layer would not decode, a header after the body, or text that
/// is no envelope up to there.
pub fn gossip_id(xml: &str) -> Option<(GossipId<'_>, usize)> {
    let mut reader = XmlReader::new(xml);
    read_root(&mut reader).ok()?;
    if reader.element_name() != (Some(SOAP_ENV_NS), "Envelope") {
        cov!();
        return None;
    }
    loop {
        match reader.next_raw().ok()? {
            RawEvent::Start => match reader.element_name() {
                (Some(SOAP_ENV_NS), "Header") => break,
                (Some(SOAP_ENV_NS), "Body") => {
                    cov!();
                    return None;
                }
                _ => reader.skip_element().ok()?,
            },
            RawEvent::End | RawEvent::Eof => return None,
            _ => {}
        }
    }
    while let Some(block) = next_block(&mut reader).ok()? {
        if block {
            let id = read_block(&mut reader).ok()??;
            return Some((id, reader.position()));
        }
        reader.skip_element().ok()?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{parse_wire, Unbundled};

    const HEAD: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
        <env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">";

    fn envelope(header: &str, body: &str) -> String {
        format!("{HEAD}<env:Header>{header}</env:Header><env:Body>{body}</env:Body></env:Envelope>")
    }

    fn block(prefix: &str, origin: &str, seq: &str) -> String {
        let p = prefix;
        format!(
            "<{p}:Gossip xmlns:{p}=\"urn:ws-gossip:2008\"><{p}:Context>c</{p}:Context>\
             <{p}:Topic>t</{p}:Topic><{p}:Origin>{origin}</{p}:Origin>\
             <{p}:Seq>{seq}</{p}:Seq><{p}:Round>1</{p}:Round></{p}:Gossip>"
        )
    }

    /// What the three reads make of `xml`: the sender's, the server's
    /// unwrap, and a lookup on the decoded envelope.
    fn reads(xml: &str) -> [Option<GossipId<'static>>; 3] {
        let unwrapped = match parse_wire(xml) {
            Ok(Unbundled::Single(Ok(id))) => id,
            other => panic!("{other:?}"),
        };
        let decoded = Envelope::parse(xml).unwrap();
        [
            gossip_id(xml).map(|(id, _)| id.into_owned()),
            unwrapped,
            decoded.gossip_id().map(GossipId::into_owned),
        ]
    }

    fn id(origin: &str, seq: u64) -> Option<GossipId<'static>> {
        Some(GossipId { origin: Cow::Owned(origin.to_string()), seq })
    }

    #[test]
    fn every_read_finds_the_first_block_by_namespace() {
        let cases = [
            (envelope(&block("wsg", "http://a/g", "7"), "<x/>"), id("http://a/g", 7)),
            (envelope(&block("g", "http://a/g", "7"), "<x/>"), id("http://a/g", 7)),
            (envelope(&block("g", "a&amp;b<![CDATA[c]]>", "+7"), ""), id("a&bc", 7)),
            (
                envelope(&(block("wsg", "first", "1") + &block("wsg", "second", "2")), ""),
                id("first", 1),
            ),
            (envelope(&block("wsg", "x", " 7"), ""), None),
            (envelope(&block("wsg", "x", "-1"), ""), None),
            (envelope(&block("wsg", "x", "7").replace(">1<", ">x<"), ""), None),
            (envelope(&block("wsg", "x", "7").replace("urn:ws-gossip:2008", "urn:other"), ""), None),
            (envelope("", "<wsg:Origin xmlns:wsg=\"urn:ws-gossip:2008\">x</wsg:Origin>"), None),
            (envelope("<wsa:Action xmlns:wsa=\"http://www.w3.org/2005/08/addressing\">a</wsa:Action>", ""), None),
        ];
        for (xml, want) in cases {
            assert_eq!(reads(&xml), [want.clone(), want.clone(), want], "{xml}");
        }
    }

    #[test]
    fn the_sender_stops_at_the_body() {
        // A header after the body is the envelope's header to a parse,
        // but the sender reads the head only.
        let late = format!(
            "{HEAD}<env:Body/><env:Header>{}</env:Header></env:Envelope>",
            block("wsg", "x", "1")
        );
        assert_eq!(reads(&late), [None, id("x", 1), id("x", 1)]);
        // Past the block nothing is read: whatever follows it, a text that
        // starts with the bytes that decided the identity has it too.
        let xml = envelope(&block("wsg", "x", "1"), "");
        let (found, read) = gossip_id(&xml).unwrap();
        assert_eq!(Some(found), id("x", 1));
        assert!(xml[..read].ends_with("</wsg:Gossip>"), "{}", &xml[..read]);
        assert_eq!(gossip_id(&xml[..read]).map(|(id, n)| (id.into_owned(), n)), Some((id("x", 1).unwrap(), read)));
        assert_eq!(gossip_id("<a/>"), None);
        assert_eq!(gossip_id("not xml"), None);
    }
}
