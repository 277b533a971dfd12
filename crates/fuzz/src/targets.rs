//! The five wire-parser fuzz targets and their oracles.
//!
//! A target wraps one parse path behind a uniform byte-string entry
//! point. `run` returning `Err` is an **oracle violation** (the parser
//! accepted/produced something inconsistent); a panic inside `run` is
//! caught by the engine and reported as a crash. A clean rejection of
//! malformed input is `Ok` — rejecting garbage is the parsers' job.

use wsg_cluster::proto::ClusterMessage;
use wsg_http::parser::{Parsed, RequestParser, ResponseParser};
use wsg_http::Request;
use wsg_soap::batch::{is_batch, parse_wire, parse_wire_after, text_of, unbundle, Unbundled};
use wsg_soap::gossip::{gossip_id, GossipId};
use wsg_soap::{
    EndpointReference, Envelope, Fault, MessageHeaders, SoapError, SOAP_ENV_NS, WSA_NS,
};
use wsg_xml::reader::MAX_DEPTH;
use wsg_xml::event::Attribute;
use wsg_xml::{Element, QName, RawEvent, XmlError, XmlEvent, XmlReader};

/// One fuzzable parse path.
pub trait FuzzTarget: Sync {
    /// Stable name — keys the corpus directory and the RNG stream.
    fn name(&self) -> &'static str;

    /// Feed one input. `Err` = oracle violation; panics are caught by the
    /// engine; `Ok` covers both acceptance and clean rejection.
    fn run(&self, input: &[u8]) -> Result<(), String>;
}

/// The five production parse paths, in corpus-directory order.
pub fn all_targets() -> Vec<Box<dyn FuzzTarget>> {
    vec![
        Box::new(HttpTarget),
        Box::new(XmlTarget),
        Box::new(EnvelopeTarget),
        Box::new(BatchTarget),
        Box::new(MembershipTarget),
    ]
}

/// Look a target up by name (CLI `--target`, corpus replay).
pub fn target_by_name(name: &str) -> Option<Box<dyn FuzzTarget>> {
    all_targets().into_iter().find(|t| t.name() == name)
}

// ---------------------------------------------------------------------
// HTTP framing
// ---------------------------------------------------------------------

/// `wsg_http::parser` — incremental request/response framing.
///
/// Oracles: chunked feeding agrees with whole-buffer feeding; a parser
/// left in `Partial` never buffers more than head cap + body cap
/// (limits actually bound allocation); completed messages survive a
/// parse → serialise → parse round trip.
pub(crate) struct HttpTarget;

/// Drive a request parser to its terminal state: completed messages,
/// then either a clean `Partial` (`None`) or the first error.
fn drain_requests(parser: &mut RequestParser) -> (Vec<Request>, Option<String>) {
    let mut messages = Vec::new();
    loop {
        match parser.parse() {
            Ok(Parsed::Complete(request)) => messages.push(request),
            Ok(Parsed::Partial) => return (messages, None),
            Err(error) => return (messages, Some(error.to_string())),
        }
    }
}

impl FuzzTarget for HttpTarget {
    fn name(&self) -> &'static str {
        "http"
    }

    fn run(&self, input: &[u8]) -> Result<(), String> {
        // Whole-buffer feed.
        let mut whole = RequestParser::new();
        whole.feed(input);
        let (whole_messages, whole_end) = drain_requests(&mut whole);

        // Chunked feed: same bytes, 7 at a time, draining after each
        // chunk. Terminal state must agree with the whole-buffer parse.
        let mut chunked = RequestParser::new();
        let mut chunked_messages = Vec::new();
        let mut chunked_end = None;
        'feed: for chunk in input.chunks(7) {
            chunked.feed(chunk);
            loop {
                match chunked.parse() {
                    Ok(Parsed::Complete(request)) => chunked_messages.push(request),
                    Ok(Parsed::Partial) => break,
                    Err(error) => {
                        chunked_end = Some(error.to_string());
                        break 'feed;
                    }
                }
            }
        }
        if whole_messages != chunked_messages || whole_end != chunked_end {
            return Err(format!(
                "chunked vs whole-buffer divergence: {}+{:?} vs {}+{:?}",
                whole_messages.len(),
                whole_end,
                chunked_messages.len(),
                chunked_end
            ));
        }

        // Round trip every completed request.
        for request in &whole_messages {
            let mut reparse = RequestParser::new();
            reparse.feed(&request.to_bytes());
            match reparse.parse() {
                Ok(Parsed::Complete(again)) => {
                    if again != *request {
                        return Err(format!(
                            "request parse→serialise→parse mismatch: {request:?} vs {again:?}"
                        ));
                    }
                }
                other => {
                    return Err(format!(
                        "serialised accepted request does not reparse: {other:?}"
                    ))
                }
            }
        }

        // Limit enforcement: a small-capped parser that stays Partial
        // must never be buffering more than head + separator + body.
        let (max_head, max_body) = (128usize, 256usize);
        let mut limited = RequestParser::with_limits(max_head, max_body);
        limited.feed(input);
        let (_, end) = drain_requests(&mut limited);
        if end.is_none() && limited.buffered() > max_head + 4 + max_body {
            return Err(format!(
                "limited parser is Partial with {} bytes buffered (caps {max_head}+{max_body})",
                limited.buffered()
            ));
        }

        // The response parser shares the framing code but has its own
        // status-line grammar; completed responses must round-trip too.
        let mut responses = ResponseParser::new();
        responses.feed(input);
        while let Ok(Parsed::Complete(response)) = responses.parse() {
            let mut reparse = ResponseParser::new();
            reparse.feed(&response.to_bytes());
            match reparse.parse() {
                Ok(Parsed::Complete(again)) if again == response => {}
                other => {
                    return Err(format!("response round trip failed: {response:?} vs {other:?}"))
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// XML reader
// ---------------------------------------------------------------------

/// `wsg_xml::XmlReader` + `Element::parse`.
///
/// Oracles: the event stream terminates within a linear bound (no
/// livelock), open-element depth never exceeds [`MAX_DEPTH`], a tree
/// that parses has an idempotent serialisation
/// (serialise → parse → serialise is a fixed point), `next_raw` agrees
/// with `next_event` on every event and on the verdict, and
/// `skip_element` agrees with tree building — same verdict, same error,
/// same end offset — on the root and on each of its children.
pub struct XmlTarget;

/// How a consumer leaves the element whose start tag was just read.
type Consume = fn(&mut XmlReader<'_>, XmlEvent) -> Result<(), XmlError>;

fn skip(reader: &mut XmlReader<'_>, _start: XmlEvent) -> Result<(), XmlError> {
    reader.skip_element()
}

fn build(reader: &mut XmlReader<'_>, start: XmlEvent) -> Result<(), XmlError> {
    match start {
        XmlEvent::StartElement { name, attributes, .. } => {
            Element::from_start_event(reader, name, attributes).map(drop)
        }
        _ => Ok(()),
    }
}

/// Read `text` with `consume` applied to every element at nesting depth
/// `level` (0 = the root), returning the byte offset after each such
/// element, or the first error.
fn element_ends(text: &str, level: usize, consume: Consume) -> Result<Vec<usize>, XmlError> {
    let mut reader = XmlReader::new(text);
    let mut ends = Vec::new();
    loop {
        match reader.next_event()? {
            XmlEvent::Eof => return Ok(ends),
            start @ XmlEvent::StartElement { .. } if reader.depth() == level + 1 => {
                consume(&mut reader, start)?;
                ends.push(reader.position());
            }
            _ => {}
        }
    }
}

/// Whether the start tag `raw` just read is `name` with `attributes`, as
/// `next_event` reported it: name and prefix, and each attribute's value
/// as `attribute` finds it (the first of a resolved name answers).
fn same_start_tag(raw: &XmlReader<'_>, name: &QName, attributes: &[Attribute]) -> bool {
    let (ns, local) = raw.element_name();
    let element = raw.element_qname();
    element == *name
        && element.prefix() == name.prefix()
        && (ns, local) == (name.namespace().filter(|ns| !ns.is_empty()), name.local())
        && attributes.iter().all(|attribute| {
            let (ns, local) = (attribute.name.namespace(), attribute.name.local());
            let first = attributes.iter().find(|a| a.name.matches(ns, local));
            raw.attribute(ns, local).as_deref() == first.map(|a| a.value.as_str())
        })
}

/// Drive `next_event` and `next_raw` over `text` side by side, to the
/// first error or the end: the same event each time, the cursor in the
/// same place after it, and the same error.
fn raw_agrees_with_events(text: &str, bound: usize) -> Result<(), String> {
    let (mut events, mut raw) = (XmlReader::new(text), XmlReader::new(text));
    for _ in 0..=bound {
        let (event, got) = (events.next_event(), raw.next_raw());
        let same = match (&event, &got) {
            (Err(expected), Err(error)) if expected == error => return Ok(()),
            (Ok(XmlEvent::Eof), Ok(RawEvent::Eof)) => return Ok(()),
            (Ok(XmlEvent::StartElement { name, attributes, .. }), Ok(RawEvent::Start)) => {
                same_start_tag(&raw, name, attributes)
            }
            (Ok(XmlEvent::EndElement { .. }), Ok(RawEvent::End)) => true,
            (Ok(XmlEvent::Text(text) | XmlEvent::CData(text)), Ok(RawEvent::Text(run))) => {
                text == run
            }
            (
                Ok(XmlEvent::Declaration { .. }
                | XmlEvent::Comment(_)
                | XmlEvent::ProcessingInstruction { .. }),
                Ok(RawEvent::Markup),
            ) => true,
            _ => false,
        };
        if !same || events.position() != raw.position() {
            return Err(format!(
                "next_event read {event:?} to {}, next_raw {got:?} to {}",
                events.position(),
                raw.position()
            ));
        }
    }
    Err(format!("next_raw emitted over {bound} events for {} bytes", text.len()))
}

impl FuzzTarget for XmlTarget {
    fn name(&self) -> &'static str {
        "xml"
    }

    fn run(&self, input: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(input);
        let mut reader = XmlReader::new(&text);
        let bound = 4 * text.len() + 16;
        let mut events = 0usize;
        let clean = loop {
            match reader.next_event() {
                Ok(XmlEvent::Eof) => break true,
                Ok(_) => {
                    events += 1;
                    if events > bound {
                        return Err(format!(
                            "reader emitted {events} events for {} bytes (livelock?)",
                            text.len()
                        ));
                    }
                    if reader.depth() > MAX_DEPTH {
                        return Err(format!("depth {} exceeds MAX_DEPTH", reader.depth()));
                    }
                }
                Err(_) => break false, // clean rejection
            }
        };
        raw_agrees_with_events(&text, bound)?;

        for level in [0, 1] {
            let skipped = element_ends(&text, level, skip);
            let built = element_ends(&text, level, build);
            if skipped != built {
                return Err(format!(
                    "skip_element and tree building diverge at depth {level}: \
                     {skipped:?} vs {built:?}"
                ));
            }
            if skipped.is_ok() != clean {
                return Err(format!(
                    "skipping at depth {level} says {skipped:?}, the event stream says {clean}"
                ));
            }
        }

        if let Ok(first) = Element::parse(&text) {
            let serialised = first.to_xml_string();
            let again = Element::parse(&serialised).map_err(|error| {
                format!("serialised tree does not reparse: {error} in {serialised:?}")
            })?;
            let twice = again.to_xml_string();
            if serialised != twice {
                return Err(format!(
                    "serialise→parse→serialise not a fixed point: {serialised:?} vs {twice:?}"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SOAP envelope
// ---------------------------------------------------------------------

/// `wsg_soap::Envelope::parse` vs the eager composition it replaced.
///
/// Oracles: the span-recording parse accepts exactly what building the
/// whole tree and decoding it accepts, with the same error class; before
/// it has built anything, what it recorded of each header block — name,
/// `env:mustUnderstand` flag, and every `header_text` answer read off the
/// block's bytes — equals what the reference's trees say; its addressing,
/// headers, `body()` and fault equal the reference's; its serialisation
/// (which splices header blocks and the payload as bytes when it may)
/// re-parses to the reference envelope; and that serialisation is a fixed
/// point — `parse(to_xml(parse(x)))` serialises to the same bytes again.
pub struct EnvelopeTarget;

/// The reference decode: the whole document as a tree first, then the
/// envelope parts picked out of it — what `Envelope::parse` did before it
/// recorded spans. Kept here only, as the oracle.
fn eager_parse(xml: &str) -> Result<Envelope, SoapError> {
    let root = Element::parse(xml)?;
    if !root.name().matches(Some(SOAP_ENV_NS), "Envelope") {
        return Err(SoapError::NotAnEnvelope(format!("root element is {}", root.name())));
    }
    let blocks: Vec<Element> = root
        .child_ns(SOAP_ENV_NS, "Header")
        .map(|header| header.children().into_iter().cloned().collect())
        .unwrap_or_default();
    let addressing = eager_addressing(&blocks)?;
    let body = root.child_ns(SOAP_ENV_NS, "Body").ok_or(SoapError::MissingPart("Body"))?;
    let envelope = match body.children().first() {
        None => Envelope::empty(addressing),
        Some(first) if first.name().matches(Some(SOAP_ENV_NS), "Fault") => {
            Envelope::fault(addressing, Fault::from_element(first)?)
        }
        Some(first) => Envelope::request(addressing, (*first).clone()),
    };
    Ok(blocks
        .into_iter()
        .filter(|block| block.name().namespace() != Some(WSA_NS))
        .fold(envelope, Envelope::with_header))
}

/// The reference decode of the WS-Addressing properties, off the header
/// blocks' trees: the last block of a name sets its property.
fn eager_addressing(blocks: &[Element]) -> Result<MessageHeaders, SoapError> {
    let mut headers = MessageHeaders::new();
    for block in blocks.iter().filter(|block| block.name().namespace() == Some(WSA_NS)) {
        headers = match block.local_name() {
            "RelatesTo" => headers.with_relates_to(block.text()),
            "From" => headers.with_from(eager_epr(block)?),
            "ReplyTo" => headers.with_reply_to(eager_epr(block)?),
            "FaultTo" => headers.with_fault_to(eager_epr(block)?),
            other => {
                match other {
                    "To" => headers.set_to(block.text()),
                    "Action" => headers.set_action(block.text()),
                    "MessageID" => headers.set_message_id(block.text()),
                    _ => {}
                }
                headers
            }
        };
    }
    Ok(headers)
}

/// The reference decode of an EPR-typed header block, off its tree.
fn eager_epr(block: &Element) -> Result<EndpointReference, SoapError> {
    let address = block
        .child_ns(WSA_NS, "Address")
        .ok_or_else(|| SoapError::Addressing("EndpointReference without Address".into()))?;
    let parameters = block.child_ns(WSA_NS, "ReferenceParameters");
    Ok(parameters
        .map(|parameters| parameters.children())
        .unwrap_or_default()
        .into_iter()
        .cloned()
        .fold(EndpointReference::new(address.text()), EndpointReference::with_parameter))
}

/// Check what a freshly parsed `envelope` — no tree built yet — recorded
/// of its header blocks against the reference's trees.
fn check_recorded_blocks(envelope: &Envelope, reference: &Envelope) -> Result<(), String> {
    let flagged = |block: &&Element| {
        matches!(block.attr_ns(SOAP_ENV_NS, "mustUnderstand"), Some("true" | "1"))
    };
    let expected: Vec<QName> =
        reference.headers().into_iter().filter(flagged).map(|b| b.name().clone()).collect();
    let recorded: Vec<QName> = envelope.must_understand().collect();
    if recorded != expected {
        return Err(format!("mustUnderstand blocks {recorded:?}, the trees say {expected:?}"));
    }
    for block in reference.headers() {
        // Blocks are looked up by namespace + local name; the first of a
        // name answers, in the tree as in the recording.
        let Some(ns) = block.name().namespace() else { continue };
        let first = reference.header(ns, block.local_name()).expect("it is one of them");
        if envelope.header_texts(ns, block.local_name(), []).is_none() {
            return Err(format!("no block recorded under the name {}", block.name()));
        }
        for child in first.children() {
            let read = envelope.header_text(ns, block.local_name(), child.local_name());
            let tree = first.child_ns(ns, child.local_name()).map(Element::text);
            if read.as_deref() != tree.as_deref() {
                return Err(format!(
                    "header_text({}, {}) reads {read:?}, the tree says {tree:?}",
                    block.name(),
                    child.local_name()
                ));
            }
        }
    }
    Ok(())
}

/// Check a parsed `envelope` against the reference decode of the same
/// text, and its serialisation against both.
fn check_against_eager(envelope: &Envelope, reference: &Envelope) -> Result<(), String> {
    check_recorded_blocks(envelope, reference)?;
    if envelope.addressing() != reference.addressing()
        || envelope.headers() != reference.headers()
        || envelope.body() != reference.body()
        || envelope.as_fault() != reference.as_fault()
    {
        return Err(format!("span-recording parse differs from the eager one: {envelope:?} vs {reference:?}"));
    }
    let serialised = envelope.to_xml();
    let again = Envelope::parse(&serialised)
        .map_err(|error| format!("serialised envelope does not reparse: {error}"))?;
    if again != *reference {
        return Err(format!(
            "spliced serialisation re-parses to a different envelope: {serialised:?}"
        ));
    }
    let twice = again.to_xml();
    if serialised != twice {
        return Err(format!(
            "envelope parse→serialise→parse not a fixed point: {serialised:?} vs {twice:?}"
        ));
    }
    Ok(())
}

/// Both decodes of `text` must agree: same verdict, same error class,
/// same envelope.
fn differential_parse(text: &str) -> Result<(), String> {
    match (Envelope::parse(text), eager_parse(text)) {
        (Ok(envelope), Ok(reference)) => check_against_eager(&envelope, &reference),
        (Err(lazy), Err(eager)) => {
            if std::mem::discriminant(&lazy) != std::mem::discriminant(&eager) {
                return Err(format!("error class changed: {lazy} vs eager {eager}"));
            }
            Ok(()) // agreed rejection
        }
        (lazy, eager) => Err(format!(
            "span-recording parse says {:?}, the eager parse {:?}",
            lazy.map(drop),
            eager.map(drop)
        )),
    }
}

impl FuzzTarget for EnvelopeTarget {
    fn name(&self) -> &'static str {
        "envelope"
    }

    fn run(&self, input: &[u8]) -> Result<(), String> {
        differential_parse(&String::from_utf8_lossy(input))
    }
}

// ---------------------------------------------------------------------
// Batch wire
// ---------------------------------------------------------------------

/// `wsg_soap::batch::parse_wire_after` vs the tree path (`Element::parse`,
/// then `unbundle`). The input is a connection's reference text and a
/// wire document, split at the first NUL (no NUL: a fresh connection).
///
/// Oracles: the streaming classifier — which builds no tree — agrees with
/// the tree walk on what is a batch, on every message's target and on the
/// envelope-shape verdict; each streamed message's `raw` is a standalone
/// document that decodes exactly as the tree walk's re-serialisation
/// does (byte-identity recovery), under the envelope differential; a
/// front-coded message's `raw` — the first one coded against the
/// reference — is, byte for byte, what the tree walk puts together from
/// the `pre` and the text its tree holds; both leave the same reference
/// behind; on a fresh connection `parse_wire` says what
/// `parse_wire_after` does; and the gossip identity each message was
/// unwrapped with is the one a namespace lookup on the decoded envelope
/// finds (and the tree walk, and the sender's read of its head when that
/// finds one).
pub struct BatchTarget;

/// The gossip identity `streamed` was unwrapped with, against the
/// namespace lookup on `raw` decoded, and the sender's read of its head.
fn same_identity(streamed: &Option<GossipId<'static>>, raw: &str) -> Result<(), String> {
    if let Ok(envelope) = Envelope::parse(raw) {
        let looked_up = envelope.gossip_id().map(GossipId::into_owned);
        if *streamed != looked_up {
            return Err(format!("unwrapped with identity {streamed:?}, the envelope has {looked_up:?}"));
        }
    }
    // The sender reads up to `env:Body` only: it may find nothing (a
    // header after the body), never something else.
    match gossip_id(raw) {
        Some((head, _)) if Some(head.clone().into_owned()) != *streamed => {
            Err(format!("the sender reads identity {head:?}, the unwrap {streamed:?}"))
        }
        _ => Ok(()),
    }
}

/// The envelope shape `parse_wire` checks by skipping, read off a tree.
fn has_envelope_shape(root: &Element) -> bool {
    root.name().matches(Some(SOAP_ENV_NS), "Envelope")
        && root.child_ns(SOAP_ENV_NS, "Body").is_some()
}

impl FuzzTarget for BatchTarget {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn run(&self, input: &[u8]) -> Result<(), String> {
        let (reference, wire) = match input.iter().position(|&byte| byte == 0) {
            Some(nul) => (&input[..nul], &input[nul + 1..]),
            None => (&b""[..], input),
        };
        let reference = String::from_utf8_lossy(reference).into_owned();
        let text = String::from_utf8_lossy(wire);
        let mut left = reference.clone();
        let streamed = parse_wire_after(&text, &mut left);
        if reference.is_empty() && parse_wire(&text) != streamed {
            return Err("parse_wire and parse_wire_after an empty reference disagree".into());
        }
        let tree = Element::parse(&text);
        match (streamed, tree) {
            (Ok(_), Err(error)) => Err(format!(
                "parse_wire accepted a document Element::parse rejects: {error}"
            )),
            (Ok(Unbundled::Single(shape)), Ok(parsed)) => {
                if is_batch(&parsed) {
                    return Err("parse_wire classified a batch as Single".into());
                }
                if shape.is_ok() != has_envelope_shape(&parsed) {
                    return Err(format!("parse_wire's shape verdict {shape:?} is not the tree's"));
                }
                if let Ok(id) = &shape {
                    same_identity(id, &text)?;
                }
                if left != text_of(&text) {
                    return Err(format!("a bare document left {left:?} as the reference"));
                }
                Ok(())
            }
            (Ok(Unbundled::Batch(messages)), Ok(parsed)) => {
                let mut walked = reference.clone();
                let via_tree = unbundle(&text, &mut walked).map_err(|error| {
                    format!("parse_wire accepted a batch unbundle rejects: {error}")
                })?;
                if walked != left {
                    return Err(format!(
                        "the stream left {left:?} as the reference, the tree walk {walked:?}"
                    ));
                }
                if messages.len() != via_tree.len() {
                    return Err(format!(
                        "streamed {} messages, tree walk {}",
                        messages.len(),
                        via_tree.len()
                    ));
                }
                let coded = parsed.children().into_iter().map(|msg| msg.attr("pre").is_some());
                for (i, ((streamed, tree), coded)) in
                    messages.iter().zip(&via_tree).zip(coded).enumerate()
                {
                    if streamed.target != tree.target {
                        return Err(format!("message {i} target differs between stream and tree"));
                    }
                    if streamed.gossip != tree.gossip {
                        return Err(format!(
                            "message {i} identity {:?} by the stream, {:?} by the tree",
                            streamed.gossip, tree.gossip
                        ));
                    }
                    same_identity(&streamed.gossip, &streamed.raw)
                        .map_err(|error| format!("message {i}: {error}"))?;
                    if coded && streamed.raw != tree.raw {
                        return Err(format!(
                            "coded message {i} unwraps to {:?}, by its tree to {:?}",
                            streamed.raw, tree.raw
                        ));
                    }
                    // Byte-identity recovery: the raw slice must itself be
                    // a standalone document for the same envelope.
                    differential_parse(&streamed.raw)
                        .map_err(|error| format!("message {i} raw: {error}"))?;
                    match (streamed.envelope(), tree.envelope()) {
                        (Ok(a), Ok(b)) if a == b => {}
                        (Err(_), Err(_)) => {}
                        (a, b) => {
                            return Err(format!(
                                "message {i} differs between stream and tree: {a:?} vs {b:?}"
                            ))
                        }
                    }
                }
                Ok(())
            }
            (Err(_), Ok(parsed)) => {
                // A structural rejection must be one the tree walk makes
                // too — otherwise parse_wire dropped a valid document.
                if is_batch(&parsed) {
                    if unbundle(&text, &mut reference.clone()).is_ok() {
                        return Err("parse_wire rejected a batch unbundle accepts".into());
                    }
                    Ok(())
                } else {
                    Err("parse_wire rejected a non-batch document Element::parse accepts".into())
                }
            }
            (Err(_), Err(_)) => Ok(()), // agreed rejection
        }
    }
}

// ---------------------------------------------------------------------
// WS-Membership binding
// ---------------------------------------------------------------------

/// `wsg_cluster::proto::ClusterMessage::from_envelope`.
///
/// Oracle: a decoded membership message re-encodes to an envelope that
/// decodes to the same message.
pub(crate) struct MembershipTarget;

impl FuzzTarget for MembershipTarget {
    fn name(&self) -> &'static str {
        "membership"
    }

    fn run(&self, input: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(input);
        let Ok(envelope) = Envelope::parse(&text) else {
            return Ok(());
        };
        let Ok(message) = ClusterMessage::from_envelope(&envelope) else {
            return Ok(()); // clean rejection
        };
        let to = envelope.addressing().to().unwrap_or("http://node/membership");
        let xml = message.to_envelope(to).to_xml();
        let again = Envelope::parse(&xml)
            .map_err(|error| format!("re-encoded membership envelope does not parse: {error}"))?;
        let decoded = ClusterMessage::from_envelope(&again)
            .map_err(|error| format!("re-encoded membership envelope does not decode: {error}"))?;
        if decoded != message {
            return Err(format!(
                "membership decode→encode→decode mismatch: {message:?} vs {decoded:?}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Planted bug (self-test only)
// ---------------------------------------------------------------------

/// A deliberately buggy target for the engine's own self-test: panics on
/// inputs containing `BOOM` (one case-flip away from the seed corpus the
/// test plants). Mirrors the `wsg_model` explorer self-test pattern —
/// the harness proves it can find, minimize and replay a real panic
/// before anyone trusts a clean sweep.
pub struct Planted;

impl FuzzTarget for Planted {
    fn name(&self) -> &'static str {
        "planted"
    }

    fn run(&self, input: &[u8]) -> Result<(), String> {
        if input.windows(4).any(|w| w == b"BOOM") {
            panic!("planted bug reached");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_stable() {
        let names: Vec<&str> = all_targets().iter().map(|t| t.name()).collect();
        assert_eq!(names, ["http", "xml", "envelope", "batch", "membership"]);
        assert!(target_by_name("batch").is_some());
        assert!(target_by_name("nope").is_none());
    }

    #[test]
    fn targets_accept_well_formed_inputs() {
        let envelope = Envelope::request(
            wsg_soap::MessageHeaders::request("http://dest/svc", "urn:app:Op"),
            Element::text_node("tick", "hi"),
        )
        .to_xml();
        assert_eq!(EnvelopeTarget.run(envelope.as_bytes()), Ok(()));
        assert_eq!(XmlTarget.run(b"<a x=\"1\"><b/>text</a>"), Ok(()));
        assert_eq!(
            HttpTarget.run(b"POST /gossip HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"),
            Ok(())
        );
        let heartbeat = ClusterMessage::Heartbeat(Vec::new())
            .to_envelope("http://x/membership")
            .to_xml();
        assert_eq!(MembershipTarget.run(heartbeat.as_bytes()), Ok(()));
        let mut batch = String::new();
        wsg_soap::batch::write_batch(
            &[
                wsg_soap::batch::BatchItem { target: None, xml: &envelope },
                wsg_soap::batch::BatchItem { target: Some("/membership"), xml: &heartbeat },
            ],
            &mut batch,
        );
        assert_eq!(BatchTarget.run(batch.as_bytes()), Ok(()));
    }

    #[test]
    fn targets_cleanly_reject_garbage() {
        for garbage in [&b"\xff\xfe\x00garbage"[..], b"<unclosed", b"", b"GET"] {
            for target in all_targets() {
                assert_eq!(target.run(garbage), Ok(()), "{}", target.name());
            }
        }
    }
}
