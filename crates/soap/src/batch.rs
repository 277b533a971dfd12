//! Wire-level envelope coalescing: the `urn:ws-gossip:batch` wrapper.
//!
//! The live transport amortises per-POST SOAP/HTTP overhead by draining
//! everything queued for one peer into a single document:
//!
//! ```xml
//! <?xml version="1.0" encoding="UTF-8"?>
//! <wsgb:Batch xmlns:wsgb="urn:ws-gossip:batch">
//!   <wsgb:Msg>…env:Envelope…</wsgb:Msg>
//!   <wsgb:Msg target="/membership">…env:Envelope…</wsgb:Msg>
//! </wsgb:Batch>
//! ```
//!
//! Each `Msg` carries exactly one inner envelope, in FIFO queue order. An
//! optional `target` attribute routes a piggybacked message to a different
//! service route than the POST's own target (heartbeats riding a gossip
//! batch); absent, the message dispatches to the POST target itself.
//!
//! Building a batch never re-parses: the sender already holds each inner
//! envelope as serialised XML, so [`write_batch`] splices the strings
//! (declarations stripped) into a caller-owned scratch buffer. A batch of
//! one message is **never** wrapped by the transport — it posts the inner
//! XML verbatim, byte-identical to the pre-batching wire format (see
//! `wsg_http::runtime`).

use wsg_net::cov;
use wsg_xml::escape::escape_attr_into;
use wsg_xml::{Element, QName, RawEvent, XmlReader};

use crate::envelope::{read_root, walk};
use crate::{Envelope, SoapError, SOAP_ENV_NS};

/// Namespace of the batch wrapper vocabulary.
pub const BATCH_NS: &str = "urn:ws-gossip:batch";

/// SOAPAction carried by a multi-message batch POST.
pub const BATCH_ACTION: &str = "urn:ws-gossip:batch/Batch";

/// `wsgb:Batch` (document root).
pub static BATCH: QName = QName::interned(BATCH_NS, "wsgb", "Batch");

/// `wsgb:Msg` (one wrapped envelope).
pub static MSG: QName = QName::interned(BATCH_NS, "wsgb", "Msg");

const XML_DECL: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// One message to be wrapped: already-serialised envelope XML plus the
/// route it should dispatch to (`None` = the POST's own target).
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// Dispatch route override, e.g. `"/membership"` for a piggybacked
    /// heartbeat riding a gossip batch.
    pub target: Option<&'a str>,
    /// The serialised inner envelope (with or without XML declaration).
    pub xml: &'a str,
}

/// One message unwrapped from a batch on the receiving side: framed and
/// checked for the envelope shape, not decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchedEnvelope {
    /// Dispatch route override (the `target` attribute), if any.
    pub target: Option<String>,
    /// The inner envelope as a standalone document (declaration + compact
    /// XML), so downstream services see the same shape as a lone POST.
    pub raw: String,
}

impl BatchedEnvelope {
    /// Decode the message.
    ///
    /// # Errors
    ///
    /// What [`Envelope::parse`] finds wrong past the shape the unwrapper
    /// checked — an addressing header or fault it cannot decode.
    pub fn envelope(&self) -> Result<Envelope, SoapError> {
        Envelope::parse(&self.raw)
    }
}

/// Serialise `items` into `out` (cleared first, allocation reused) as one
/// batch document. The inner XML strings are spliced verbatim minus their
/// declarations; order is preserved.
pub fn write_batch(items: &[BatchItem<'_>], out: &mut String) {
    write_batch_parts(items.iter().map(|item| (item.target, [item.xml, "", ""])), out);
}

/// [`write_batch`] over messages held in pieces — `(target, parts)`, the
/// inner XML being the parts in order — so a sender whose queued copies of
/// one notification share most of their bytes can splice them without
/// joining each first.
pub fn write_batch_parts<'a>(
    items: impl Iterator<Item = (Option<&'a str>, [&'a str; 3])> + Clone,
    out: &mut String,
) {
    out.clear();
    let body: usize =
        items.clone().map(|(_, parts)| parts.iter().map(|p| p.len()).sum::<usize>() + 24).sum();
    out.reserve(XML_DECL.len() + 64 + body);
    out.push_str(XML_DECL);
    out.push_str("<wsgb:Batch xmlns:wsgb=\"");
    out.push_str(BATCH_NS);
    out.push_str("\">");
    for (target, parts) in items {
        match target {
            None => out.push_str("<wsgb:Msg>"),
            Some(target) => {
                out.push_str("<wsgb:Msg target=\"");
                escape_attr_into(out, target);
                out.push_str("\">");
            }
        }
        // A declaration sits at the very start: in the first part that
        // has any bytes (see `prologue_len`).
        let mut leading = true;
        for part in parts.into_iter().filter(|part| !part.is_empty()) {
            out.push_str(if leading { strip_declaration(part) } else { part });
            leading = false;
        }
        out.push_str("</wsgb:Msg>");
    }
    out.push_str("</wsgb:Batch>");
}

/// Drop a leading `<?xml …?>` declaration (and surrounding whitespace) so
/// the envelope can be embedded inside the batch document.
fn strip_declaration(xml: &str) -> &str {
    xml[prologue_len(xml)..].trim_start()
}

/// Bytes of `xml` up to the end of a leading `<?xml …?>` declaration
/// (leading whitespace up to the first markup when there is none) —
/// where [`write_batch_parts`] starts copying. A message handed to it in
/// pieces must have all of this in its first non-empty piece.
pub fn prologue_len(xml: &str) -> usize {
    let rest = xml.trim_start();
    let leading = xml.len() - rest.len();
    match rest.strip_prefix("<?xml").and_then(|after| after.find("?>")) {
        Some(end) => leading + "<?xml".len() + end + "?>".len(),
        None => leading,
    }
}

/// A wire document classified by [`parse_wire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unbundled {
    /// The document was a `wsgb:Batch`: its messages, in wire order.
    Batch(Vec<BatchedEnvelope>),
    /// Not a batch: one well-formed document, with what (if anything)
    /// keeps it from having the shape of a SOAP envelope.
    Single(Result<(), SoapError>),
}

/// Check a wire document, unwrapping it when it is a batch.
///
/// This is the receive hot path, and it builds no tree: the document is
/// streamed once with [`XmlReader::skip_element`] doing the well-formedness
/// work, every envelope is checked for its shape only (root is
/// `env:Envelope`, has an `env:Body`), and each batched message's `raw`
/// form is the sender's exact bytes sliced back out of `wire` — one
/// exact-capacity allocation per message.
///
/// # Errors
///
/// [`SoapError::Xml`] for malformed XML (including trailing content after
/// the root, matching [`Element::parse`]), [`SoapError::Batch`] for a
/// malformed wrapper, and the envelope-shape errors for a batched message
/// that is not an envelope. Never panics, whatever the input looks like.
pub fn parse_wire(wire: &str) -> Result<Unbundled, SoapError> {
    let mut reader = XmlReader::new(wire);
    read_root(&mut reader)?;
    if reader.element_name() != (Some(BATCH_NS), "Batch") {
        cov!();
        let shape = envelope_shape(&mut reader)?;
        reader.finish()?;
        return Ok(Unbundled::Single(shape));
    }

    let mut out = Vec::new();
    loop {
        match reader.next_raw()? {
            RawEvent::Start => {
                if reader.element_name() != (Some(BATCH_NS), "Msg") {
                    cov!();
                    let name = reader.element_qname();
                    return Err(SoapError::Batch(format!("batch carries a {name}")));
                }
                cov!();
                let target = reader.attribute(None, "target").map(|target| target.into_owned());
                let raw = read_msg(&mut reader, wire)?;
                out.push(BatchedEnvelope { target, raw });
            }
            // `</wsgb:Batch>` — the reader itself balances tags, so an
            // `End` at this depth can only be the wrapper's.
            RawEvent::End => break,
            // Text and comments between messages are ignored, exactly
            // as the tree walk in `unbundle` ignores non-element nodes.
            _ => {}
        }
    }
    reader.finish()?;
    if out.is_empty() {
        cov!();
        return Err(SoapError::Batch("batch carries no messages".into()));
    }
    Ok(Unbundled::Batch(out))
}

/// Skip through the element just started, reporting what keeps it from
/// having the shape of an envelope.
fn envelope_shape(reader: &mut XmlReader<'_>) -> Result<Result<(), SoapError>, SoapError> {
    let shape = walk(reader, XmlReader::skip_element, XmlReader::skip_element)?;
    Ok(shape.is_envelope().and_then(|()| shape.has_body()))
}

/// Read one `wsgb:Msg`'s content — exactly one inner element, shaped like
/// an envelope — and return its standalone `raw` form.
fn read_msg(reader: &mut XmlReader<'_>, wire: &str) -> Result<String, SoapError> {
    let mut inner: Option<String> = None;
    // Bindings declared at or below this scope depth (the batch wrapper's
    // xmlns:wsgb, or anything else on the outer elements) are invisible to
    // a message slice replayed standalone.
    let outer_scope = reader.scope_depth();
    loop {
        // After the previous event is consumed the cursor sits exactly
        // on the next construct, so for a start tag this is the byte
        // offset of its `<`.
        let start = reader.position();
        reader.reset_binding_watermark();
        match reader.next_raw()? {
            RawEvent::Start => {
                if inner.is_some() {
                    cov!();
                    return Err(SoapError::Batch(
                        "Msg wraps more than one element (want exactly 1)".into(),
                    ));
                }
                cov!();
                envelope_shape(reader)??;
                let slice = &wire[start..reader.position()];
                let mut raw = String::with_capacity(XML_DECL.len() + slice.len());
                raw.push_str(XML_DECL);
                if reader.binding_watermark() > outer_scope {
                    // The envelope resolved every prefix from its own
                    // declarations: the sender's exact bytes are a
                    // standalone document.
                    cov!();
                    raw.push_str(slice);
                } else {
                    // The envelope leaned on a binding inherited from
                    // the batch wrapper (e.g. wsgb:), which the slice
                    // would lose — build this one message's tree and let
                    // the writer re-declare everything it uses.
                    // (Regression:
                    // fuzz/corpus/regressions/batch/24ffc09407f20b43.)
                    cov!();
                    let tree = Element::parse_in_scope(slice, &reader.in_scope_bindings())?;
                    raw.push_str(&tree.to_xml_string());
                }
                inner = Some(raw);
            }
            RawEvent::End => break, // `</wsgb:Msg>`
            _ => {} // text/comments alongside the envelope are ignored
        }
    }
    inner.ok_or_else(|| {
        cov!();
        SoapError::Batch("Msg wraps 0 elements (want exactly 1)".into())
    })
}

/// Whether a parsed document root is a batch wrapper.
pub fn is_batch(root: &Element) -> bool {
    root.name().matches(Some(BATCH_NS), "Batch")
}

/// Unwrap an already-built batch tree into its messages, in wire order —
/// the tree-walk reference [`parse_wire`] is tested and fuzzed against.
///
/// # Errors
///
/// [`SoapError::Batch`] when the root is not a `wsgb:Batch`, a child is
/// not a `wsgb:Msg`, a `Msg` does not carry exactly one child element, or
/// the batch is empty; [`SoapError::NotAnEnvelope`] /
/// [`SoapError::MissingPart`] for a message without the envelope shape.
/// Never panics, whatever the input tree looks like.
pub fn unbundle(root: &Element) -> Result<Vec<BatchedEnvelope>, SoapError> {
    if !is_batch(root) {
        cov!();
        return Err(SoapError::Batch(format!("root element is {}", root.name())));
    }
    let children = root.children();
    if children.is_empty() {
        cov!();
        return Err(SoapError::Batch("batch carries no messages".into()));
    }
    let mut out = Vec::with_capacity(children.len());
    for child in children {
        if !child.name().matches(Some(BATCH_NS), "Msg") {
            cov!();
            return Err(SoapError::Batch(format!("batch carries a {}", child.name())));
        }
        let wrapped = child.children();
        let inner = match wrapped.as_slice() {
            [only] => *only,
            _ => {
                cov!();
                return Err(SoapError::Batch(format!(
                    "Msg wraps {} elements (want exactly 1)",
                    wrapped.len()
                )));
            }
        };
        cov!();
        if !inner.name().matches(Some(SOAP_ENV_NS), "Envelope") {
            return Err(SoapError::NotAnEnvelope(format!("root element is {}", inner.name())));
        }
        if inner.child_ns(SOAP_ENV_NS, "Body").is_none() {
            return Err(SoapError::MissingPart("Body"));
        }
        let serialised = inner.to_xml_string();
        let mut raw = String::with_capacity(XML_DECL.len() + serialised.len());
        raw.push_str(XML_DECL);
        raw.push_str(&serialised);
        out.push(BatchedEnvelope { target: child.attr("target").map(str::to_string), raw });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::MessageHeaders;

    fn sample(n: usize) -> Envelope {
        Envelope::request(
            MessageHeaders::request(format!("http://dest/{n}"), format!("urn:app:Op{n}"))
                .with_message_id(format!("urn:uuid:{n}")),
            Element::text_node("tick", format!("payload-{n}")),
        )
    }

    #[test]
    fn round_trips_order_targets_and_content() {
        let envelopes: Vec<Envelope> = (0..4).map(sample).collect();
        let xmls: Vec<String> = envelopes.iter().map(Envelope::to_xml).collect();
        let items: Vec<BatchItem<'_>> = xmls
            .iter()
            .enumerate()
            .map(|(i, xml)| BatchItem {
                target: if i == 2 { Some("/membership") } else { None },
                xml,
            })
            .collect();
        let mut wire = String::new();
        write_batch(&items, &mut wire);

        let root = Element::parse(&wire).unwrap();
        assert!(is_batch(&root));
        let unpacked = unbundle(&root).unwrap();
        assert_eq!(unpacked.len(), 4);
        for (i, msg) in unpacked.iter().enumerate() {
            assert_eq!(msg.envelope().unwrap(), envelopes[i], "message {i} round-trips");
            assert_eq!(
                msg.target.as_deref(),
                if i == 2 { Some("/membership") } else { None }
            );
            // The reconstructed raw is itself a parseable standalone doc
            // describing the same envelope.
            assert_eq!(Envelope::parse(&msg.raw).unwrap(), envelopes[i]);
        }
    }

    #[test]
    fn scratch_buffer_is_reused_and_cleared() {
        let xml = sample(1).to_xml();
        let items = [BatchItem { target: None, xml: &xml }];
        let mut buf = String::from("stale contents from the previous batch");
        write_batch(&items, &mut buf);
        let first = buf.clone();
        write_batch(&items, &mut buf);
        assert_eq!(buf, first);
    }

    #[test]
    fn declaration_is_stripped_once_regardless_of_form() {
        assert_eq!(strip_declaration("<a/>"), "<a/>");
        assert_eq!(
            strip_declaration("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>"),
            "<a/>"
        );
        assert_eq!(strip_declaration("  <?xml version=\"1.0\"?>\n  <a/>"), "<a/>");
        // A truncated declaration is left alone (the parse will reject it).
        assert_eq!(strip_declaration("<?xml version"), "<?xml version");
    }

    #[test]
    fn parse_wire_matches_unbundle_and_slices_sender_bytes() {
        let envelopes: Vec<Envelope> = (0..4).map(sample).collect();
        let xmls: Vec<String> = envelopes.iter().map(Envelope::to_xml).collect();
        let items: Vec<BatchItem<'_>> = xmls
            .iter()
            .enumerate()
            .map(|(i, xml)| BatchItem {
                target: if i == 1 { Some("/membership") } else { None },
                xml,
            })
            .collect();
        let mut wire = String::new();
        write_batch(&items, &mut wire);

        let via_tree = unbundle(&Element::parse(&wire).unwrap()).unwrap();
        let streamed = match parse_wire(&wire).unwrap() {
            Unbundled::Batch(messages) => messages,
            other => panic!("batch wire classified as {other:?}"),
        };
        assert_eq!(streamed.len(), via_tree.len());
        for (i, (s, t)) in streamed.iter().zip(&via_tree).enumerate() {
            assert_eq!(s.envelope(), t.envelope(), "message {i} envelope");
            assert_eq!(s.target, t.target, "message {i} target");
            // The streamed raw is the sender's own serialisation, byte for
            // byte — not a re-serialisation of the parsed tree.
            assert_eq!(s.raw, xmls[i], "message {i} raw");
        }
    }

    #[test]
    fn parse_wire_hands_back_non_batch_documents() {
        let xml = sample(3).to_xml();
        match parse_wire(&xml).unwrap() {
            Unbundled::Single(shape) => assert_eq!(shape, Ok(())),
            other => panic!("lone envelope classified as {other:?}"),
        }
        // Trailing junk is rejected just as Element::parse rejects it.
        let trailing = format!("{xml}<extra/>");
        assert!(parse_wire(&trailing).is_err());
        assert!(parse_wire("").is_err());
    }

    #[test]
    fn parse_wire_rejects_what_unbundle_rejects() {
        for bad in [
            "<x/>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"/>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><other/></wsgb:Batch>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg/></wsgb:Batch>",
        ] {
            match parse_wire(bad) {
                Ok(Unbundled::Single(shape)) => {
                    assert_eq!(bad, "<x/>", "only <x/> is a document");
                    assert!(matches!(shape, Err(SoapError::NotAnEnvelope(_))));
                }
                Ok(Unbundled::Batch(_)) => panic!("{bad} accepted as a batch"),
                Err(SoapError::Batch(_)) => {}
                Err(other) => panic!("{bad} failed with {other}"),
            }
        }
        let not_envelope =
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg><x/></wsgb:Msg></wsgb:Batch>";
        assert!(matches!(parse_wire(not_envelope), Err(SoapError::NotAnEnvelope(_))));
    }

    #[test]
    fn rejects_malformed_wrappers() {
        let not_batch = Element::parse("<x/>").unwrap();
        assert!(matches!(unbundle(&not_batch), Err(SoapError::Batch(_))));

        let empty =
            Element::parse("<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"/>").unwrap();
        assert!(matches!(unbundle(&empty), Err(SoapError::Batch(_))));

        let wrong_child = Element::parse(
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><other/></wsgb:Batch>",
        )
        .unwrap();
        assert!(matches!(unbundle(&wrong_child), Err(SoapError::Batch(_))));

        let empty_msg = Element::parse(
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg/></wsgb:Batch>",
        )
        .unwrap();
        assert!(matches!(unbundle(&empty_msg), Err(SoapError::Batch(_))));

        let not_envelope = Element::parse(
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg><x/></wsgb:Msg></wsgb:Batch>",
        )
        .unwrap();
        assert!(matches!(
            unbundle(&not_envelope),
            Err(SoapError::NotAnEnvelope(_))
        ));
    }
}
