//! The SOAP 1.2 envelope: headers first, body on demand.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use wsg_net::cov;
use wsg_xml::{Element, QName, XmlError, XmlEvent, XmlReader, XmlWriter};

use crate::addressing::MessageHeaders;
use crate::error::SoapError;
use crate::fault::Fault;
use crate::{qnames, SOAP_ENV_NS, WSA_NS};

/// A SOAP 1.2 message: WS-Addressing properties, additional header blocks
/// and a body.
///
/// The body is either one application payload element or a [`Fault`].
/// Headers are what intermediaries route on, so they are always decoded;
/// the payload is opaque freight to every hop but the last, so a parsed
/// envelope keeps it as the sender's bytes and builds its tree only when
/// [`Envelope::body`] is first asked for it. Clones share the payload and,
/// until one edits them, the header blocks: a clone costs the addressing
/// properties.
///
/// ```
/// use wsg_soap::{Envelope, MessageHeaders};
/// use wsg_xml::Element;
///
/// # fn main() -> Result<(), wsg_soap::SoapError> {
/// let env = Envelope::request(
///     MessageHeaders::request("http://quotes", "urn:stock:Notify"),
///     Element::text_node("tick", "ACME"),
/// );
/// let parsed = Envelope::parse(&env.to_xml())?;
/// assert_eq!(parsed.body().unwrap().local_name(), "tick");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    addressing: MessageHeaders,
    // Shared across clones until one of them edits its blocks: a forward
    // to `f` peers rewrites addressing `f` times, the blocks once.
    extra_headers: Arc<Vec<Element>>,
    body: Body,
}

#[derive(Debug, Clone)]
enum Body {
    Payload(Arc<Payload>),
    Fault(Fault),
    Empty,
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Body::Payload(a), Body::Payload(b)) => Arc::ptr_eq(a, b) || a.tree() == b.tree(),
            (Body::Fault(a), Body::Fault(b)) => a == b,
            (Body::Empty, Body::Empty) => true,
            _ => false,
        }
    }
}

impl Eq for Body {}

/// The application payload in whichever forms have been needed so far —
/// an envelope built from a tree starts with `tree`, a parsed one with
/// `wire`; the other is derived at most once, for every clone at once.
#[derive(Debug)]
struct Payload {
    tree: OnceLock<Element>,
    wire: OnceLock<Fragment>,
}

/// A payload element as serialised XML: a span of the document it
/// arrived in (or was first written into).
#[derive(Debug)]
struct Fragment {
    source: String,
    span: Range<usize>,
    // The `(prefix, uri)` bindings in scope around the span, outermost
    // first — empty when it resolves every prefix from its own
    // declarations.
    outer: Vec<(String, String)>,
}

impl Fragment {
    fn xml(&self) -> &str {
        &self.source[self.span.clone()]
    }

    /// Whether `xml` means the same inside any envelope this module
    /// writes: self-contained, or leaning on nothing but the `env` / `wsa`
    /// bindings [`Envelope::write_into`] re-declares.
    fn portable(&self) -> bool {
        self.outer.iter().all(|(prefix, uri)| {
            matches!((prefix.as_str(), uri.as_str()), ("env", SOAP_ENV_NS) | ("wsa", WSA_NS))
        })
    }

    fn to_tree(&self) -> Element {
        Element::parse_in_scope(self.xml(), &self.outer)
            .expect("a fragment passed the same tokenizer when it was cut")
    }
}

impl Payload {
    fn from_tree(tree: Element) -> Arc<Self> {
        Arc::new(Payload { tree: OnceLock::from(tree), wire: OnceLock::new() })
    }

    fn from_wire(wire: Fragment) -> Arc<Self> {
        Arc::new(Payload { tree: OnceLock::new(), wire: OnceLock::from(wire) })
    }

    fn tree(&self) -> &Element {
        self.tree.get_or_init(|| {
            self.wire.get().expect("a payload holds a tree or a fragment").to_tree()
        })
    }

    fn into_tree(self) -> Element {
        self.tree.into_inner().unwrap_or_else(|| {
            self.wire.into_inner().expect("a payload holds a tree or a fragment").to_tree()
        })
    }

    /// Write the payload as content of the open `env:Body`. `fresh`: the
    /// writer held nothing before this envelope, so its scope is exactly
    /// the `env` / `wsa` bindings the envelope declared. `shared`: other
    /// clones of the envelope hold this payload too.
    fn write_into(&self, w: &mut XmlWriter, fresh: bool, shared: bool) -> Result<(), XmlError> {
        match self.wire.get() {
            Some(fragment) if fresh && fragment.portable() => {
                cov!();
                w.raw(fragment.xml())
            }
            None if fresh && shared => {
                // First serialisation of a tree-built payload that has
                // more to come (a publication's `f` forwards): keep the
                // bytes, every clone splices them from now on.
                cov!();
                let source = w.capture(|w| self.tree().write_into(w))?.to_string();
                let span = 0..source.len();
                self.wire.get_or_init(|| Fragment { source, span, outer: Vec::new() });
                Ok(())
            }
            _ => {
                // The fragment leans on bindings this document does not
                // declare (or the writer carries a foreign scope): the
                // tree writer re-declares whatever the payload uses.
                cov!();
                self.tree().write_into(w)
            }
        }
    }
}

impl Envelope {
    /// A request/notification message with the given addressing and payload.
    pub fn request(addressing: MessageHeaders, payload: Element) -> Self {
        Envelope {
            addressing,
            extra_headers: Arc::default(),
            body: Body::Payload(Payload::from_tree(payload)),
        }
    }

    /// A fault message.
    pub fn fault(addressing: MessageHeaders, fault: Fault) -> Self {
        Envelope { addressing, extra_headers: Arc::default(), body: Body::Fault(fault) }
    }

    /// A message with an empty body (e.g. an acknowledgement).
    pub fn empty(addressing: MessageHeaders) -> Self {
        Envelope { addressing, extra_headers: Arc::default(), body: Body::Empty }
    }

    /// Builder: attach a non-addressing header block (e.g. a
    /// `CoordinationContext`).
    pub fn with_header(mut self, header: Element) -> Self {
        self.push_header(header);
        self
    }

    /// WS-Addressing properties.
    pub fn addressing(&self) -> &MessageHeaders {
        &self.addressing
    }

    /// Mutable WS-Addressing properties (the gossip layer rewrites `To`
    /// when re-routing).
    pub fn addressing_mut(&mut self) -> &mut MessageHeaders {
        &mut self.addressing
    }

    /// Non-addressing header blocks.
    pub fn headers(&self) -> &[Element] {
        &self.extra_headers
    }

    /// First header block matching namespace + local name.
    pub fn header(&self, ns: &str, local: &str) -> Option<&Element> {
        self.extra_headers
            .iter()
            .find(|h| h.name().matches(Some(ns), local))
    }

    /// Add a header block.
    pub fn push_header(&mut self, header: Element) {
        Arc::make_mut(&mut self.extra_headers).push(header);
    }

    /// Remove and return the first header matching namespace + local name.
    pub fn take_header(&mut self, ns: &str, local: &str) -> Option<Element> {
        let idx = self
            .extra_headers
            .iter()
            .position(|h| h.name().matches(Some(ns), local))?;
        Some(Arc::make_mut(&mut self.extra_headers).remove(idx))
    }

    /// The payload element, unless this is a fault or an empty message.
    /// On a parsed envelope the first call builds the tree.
    pub fn body(&self) -> Option<&Element> {
        match &self.body {
            Body::Payload(p) => Some(p.tree()),
            _ => None,
        }
    }

    /// Take the payload element out of the envelope — without a copy when
    /// no clone of the envelope is left sharing it.
    pub fn into_body(self) -> Option<Element> {
        match self.body {
            Body::Payload(p) => Some(match Arc::try_unwrap(p) {
                Ok(payload) => payload.into_tree(),
                Err(shared) => shared.tree().clone(),
            }),
            _ => None,
        }
    }

    /// The fault, if this is a fault message.
    pub fn as_fault(&self) -> Option<&Fault> {
        match &self.body {
            Body::Fault(f) => Some(f),
            _ => None,
        }
    }

    /// Whether the message is a fault.
    pub fn is_fault(&self) -> bool {
        matches!(self.body, Body::Fault(_))
    }

    /// Serialise to the element tree form.
    pub fn to_element(&self) -> Element {
        let mut envelope = Element::in_ns("env", SOAP_ENV_NS, "Envelope")
            .with_namespace("env", SOAP_ENV_NS)
            .with_namespace("wsa", WSA_NS);
        let addressing_blocks = self.addressing.to_header_blocks();
        if !addressing_blocks.is_empty() || !self.extra_headers.is_empty() {
            let mut header = Element::in_ns("env", SOAP_ENV_NS, "Header");
            for block in addressing_blocks {
                header.push_child(block);
            }
            for block in self.headers() {
                header.push_child(block.clone());
            }
            envelope.push_child(header);
        }
        let mut body = Element::in_ns("env", SOAP_ENV_NS, "Body");
        match &self.body {
            Body::Payload(p) => body.push_child(p.tree().clone()),
            Body::Fault(f) => body.push_child(f.to_element()),
            Body::Empty => {}
        }
        envelope.push_child(body);
        envelope
    }

    /// Stream this envelope into an open [`XmlWriter`] — byte-identical to
    /// serialising [`Envelope::to_element`] for every envelope built here
    /// or parsed from this writer's output, without building the tree. A
    /// payload that already exists as bytes is spliced in verbatim, so a
    /// foreign sender's CDATA sections and character references travel on
    /// as written.
    ///
    /// # Errors
    ///
    /// Propagates writer errors (e.g. an invalid payload element name).
    pub fn write_into(&self, w: &mut XmlWriter) -> Result<(), XmlError> {
        let fresh = w.depth() == 0;
        w.start_element(&qnames::ENVELOPE)?;
        w.declare_namespace("env", SOAP_ENV_NS)?;
        w.declare_namespace("wsa", WSA_NS)?;
        if !self.addressing.is_empty() || !self.extra_headers.is_empty() {
            w.start_element(&qnames::HEADER)?;
            self.addressing.write_header_blocks(w)?;
            for block in self.headers() {
                block.write_into(w)?;
            }
            w.end_element()?;
        }
        w.start_element(&qnames::BODY)?;
        match &self.body {
            Body::Payload(p) => p.write_into(w, fresh, Arc::strong_count(p) > 1)?,
            Body::Fault(f) => f.to_element().write_into(w)?,
            Body::Empty => {}
        }
        w.end_element()?;
        w.end_element()
    }

    /// Serialise to the wire (compact XML with declaration) into `buf`,
    /// which is cleared first and whose allocation is reused — the hot-path
    /// form of [`Envelope::to_xml`] for callers that keep a scratch buffer.
    pub fn write_xml(&self, buf: &mut String) {
        let mut w = XmlWriter::new_into(std::mem::take(buf));
        w.declaration().expect("declaration is written first");
        self.write_into(&mut w).expect("envelope is always writable");
        *buf = w.finish().expect("envelope is always balanced");
    }

    /// Serialise to the wire (compact XML with declaration).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out);
        out
    }

    /// Wire size in bytes — used by the simulator's bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        self.to_xml().len()
    }

    /// Parse an envelope from its XML form: the whole document is checked
    /// for well-formedness, `env:Header` is decoded, and the payload is
    /// kept as the bytes it arrived in (a `env:Fault` body is decoded).
    ///
    /// # Errors
    ///
    /// Returns [`SoapError::Xml`] for malformed XML, and
    /// [`SoapError::NotAnEnvelope`]/[`SoapError::MissingPart`] for documents
    /// that are not SOAP 1.2 messages.
    pub fn parse(xml: &str) -> Result<Self, SoapError> {
        Parts::read(xml)?.assemble(|span| (xml[span.clone()].to_string(), 0..span.len()))
    }

    /// [`Envelope::parse`] for a caller that is done with the text: the
    /// envelope keeps `xml` itself as its payload bytes instead of copying
    /// them out — what a receive path wants, where most messages are
    /// duplicates whose payload nobody will look at.
    ///
    /// # Errors
    ///
    /// As [`Envelope::parse`].
    pub fn parse_owned(xml: String) -> Result<Self, SoapError> {
        Parts::read(&xml)?.assemble(|span| (xml, span))
    }
}

/// What the one pass over a document found, before the payload bytes are
/// given an owner.
struct Parts {
    addressing: MessageHeaders,
    blocks: Vec<Element>,
    first: Option<FirstChild>,
}

impl Parts {
    fn read(xml: &str) -> Result<Self, SoapError> {
        let mut reader = XmlReader::new(xml);
        let root = read_root(&mut reader)?;
        let mut blocks = Vec::new();
        let mut first = None;
        let shape = walk(
            &mut reader,
            &root,
            |reader| read_children(reader, &mut blocks),
            |reader| read_body(reader, &mut first),
        )?;
        reader.finish()?;

        // The document is well-formed; now the order a tree walk would
        // find structural faults in: root, headers, body.
        shape.is_envelope()?;
        let addressing = MessageHeaders::from_header_blocks(&blocks)?;
        blocks.retain(|block| block.name().namespace() != Some(WSA_NS));
        shape.has_body()?;
        Ok(Parts { addressing, blocks, first })
    }

    /// `keep` turns the payload's span of the document into the owned
    /// `(source, span)` the envelope holds on to.
    fn assemble(
        self,
        keep: impl FnOnce(Range<usize>) -> (String, Range<usize>),
    ) -> Result<Envelope, SoapError> {
        let body = match self.first {
            None => {
                cov!();
                Body::Empty
            }
            Some(FirstChild::Fault(fault)) => {
                cov!();
                Body::Fault(Fault::from_element(&fault)?)
            }
            Some(FirstChild::Payload { span, outer }) => {
                cov!();
                let (source, span) = keep(span);
                Body::Payload(Payload::from_wire(Fragment { source, span, outer }))
            }
        };
        Ok(Envelope {
            addressing: self.addressing,
            extra_headers: Arc::new(self.blocks),
            body,
        })
    }
}

/// Read the prologue up to and including the root start tag.
pub(crate) fn read_root(reader: &mut XmlReader<'_>) -> Result<QName, XmlError> {
    loop {
        if let XmlEvent::StartElement { name, .. } = reader.next_event()? {
            return Ok(name);
        }
    }
}

/// What a walk over a document found of the SOAP envelope shape.
pub(crate) struct Shape {
    // The root's name when it is not `env:Envelope`.
    foreign_root: Option<String>,
    body: bool,
}

impl Shape {
    pub(crate) fn is_envelope(&self) -> Result<(), SoapError> {
        match &self.foreign_root {
            Some(root) => {
                cov!();
                Err(SoapError::NotAnEnvelope(format!("root element is {root}")))
            }
            None => Ok(()),
        }
    }

    pub(crate) fn has_body(&self) -> Result<(), SoapError> {
        if !self.body {
            cov!();
            return Err(SoapError::MissingPart("Body"));
        }
        Ok(())
    }
}

/// Walk the document element `root` (its start tag already read) through
/// its end tag: the first `env:Header` child goes to `on_header`, the
/// first `env:Body` child to `on_body` — each must consume that element
/// through its end tag — and everything else is skipped. This is the one
/// place that knows where an envelope keeps its parts; the full parse and
/// the transport's shape check differ only in what the callbacks build.
pub(crate) fn walk<'a>(
    reader: &mut XmlReader<'a>,
    root: &QName,
    mut on_header: impl FnMut(&mut XmlReader<'a>) -> Result<(), XmlError>,
    mut on_body: impl FnMut(&mut XmlReader<'a>) -> Result<(), XmlError>,
) -> Result<Shape, XmlError> {
    if !root.matches(Some(SOAP_ENV_NS), "Envelope") {
        reader.skip_element()?;
        return Ok(Shape { foreign_root: Some(root.to_string()), body: false });
    }
    let (mut header, mut body) = (false, false);
    loop {
        match reader.next_event()? {
            XmlEvent::StartElement { name, .. } => {
                if !header && name.matches(Some(SOAP_ENV_NS), "Header") {
                    cov!();
                    header = true;
                    on_header(reader)?;
                } else if !body && name.matches(Some(SOAP_ENV_NS), "Body") {
                    cov!();
                    body = true;
                    on_body(reader)?;
                } else {
                    cov!();
                    reader.skip_element()?;
                }
            }
            XmlEvent::EndElement { .. } => return Ok(Shape { foreign_root: None, body }),
            _ => {}
        }
    }
}

/// Build the child elements of the element just started (an `env:Header`'s
/// blocks), consuming through its end tag.
fn read_children(reader: &mut XmlReader<'_>, out: &mut Vec<Element>) -> Result<(), XmlError> {
    loop {
        match reader.next_event()? {
            XmlEvent::StartElement { name, attributes, .. } => {
                out.push(Element::from_start_event(reader, name, attributes)?);
            }
            XmlEvent::EndElement { .. } => return Ok(()),
            _ => {}
        }
    }
}

/// The first child element of `env:Body`, as far as the parse decodes it.
enum FirstChild {
    /// Its byte span of the document, and the bindings in scope around it
    /// when it leans on them.
    Payload { span: Range<usize>, outer: Vec<(String, String)> },
    Fault(Element),
}

/// Frame the content of the `env:Body` just started, consuming through
/// its end tag: a leading `env:Fault` is built, any other first child is
/// skipped over and kept as its byte span of the document; later children
/// are skipped and dropped.
fn read_body(reader: &mut XmlReader<'_>, first: &mut Option<FirstChild>) -> Result<(), XmlError> {
    let body_scope = reader.scope_depth();
    loop {
        // After the previous event the cursor sits exactly on the next
        // construct: for a start tag, the offset of its `<`.
        let start = reader.position();
        reader.reset_binding_watermark();
        match reader.next_event()? {
            XmlEvent::StartElement { name, attributes, .. } => {
                if first.is_some() {
                    cov!();
                    reader.skip_element()?;
                } else if name.matches(Some(SOAP_ENV_NS), "Fault") {
                    cov!();
                    let fault = Element::from_start_event(reader, name, attributes)?;
                    *first = Some(FirstChild::Fault(fault));
                } else {
                    reader.skip_element()?;
                    // A watermark above the body's scope depth: every
                    // prefix resolved inside the payload itself.
                    let outer = if reader.binding_watermark() > body_scope {
                        cov!();
                        Vec::new()
                    } else {
                        cov!();
                        reader.in_scope_bindings()
                    };
                    *first = Some(FirstChild::Payload { span: start..reader.position(), outer });
                }
            }
            XmlEvent::EndElement { .. } => return Ok(()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::EndpointReference;
    use crate::fault::FaultCode;

    fn sample() -> Envelope {
        Envelope::request(
            MessageHeaders::request("http://dest/svc", "urn:app:Op")
                .with_message_id("urn:uuid:42")
                .with_reply_to(EndpointReference::new("http://src/svc")),
            Element::new("op")
                .with_attr("seq", "1")
                .with_child(Element::text_node("value", "hello & goodbye")),
        )
    }

    #[test]
    fn write_xml_matches_tree_serialisation() {
        let ctx = Element::in_ns("wscoor", "urn:wscoor", "CoordinationContext")
            .with_child(Element::text_node("Identifier", "ctx-1"));
        let cases = [
            sample(),
            sample().with_header(ctx),
            Envelope::fault(
                MessageHeaders::request("http://dest", "urn:fault"),
                Fault::new(FaultCode::Sender, "bad request").with_detail(
                    Element::text_node("reason", "x < y & z"),
                ),
            ),
            Envelope::empty(MessageHeaders::new()),
            // Empty property values must render as `<wsa:To></wsa:To>`
            // (open+close), exactly like the tree form.
            Envelope::empty(MessageHeaders::request("", "")),
        ];
        for env in cases {
            let tree = {
                let mut out =
                    String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
                out.push_str(&env.to_element().to_xml_string());
                out
            };
            let mut buf = String::from("stale content to be cleared");
            env.write_xml(&mut buf);
            assert_eq!(buf, tree);
            assert_eq!(env.to_xml(), tree);
        }
    }

    #[test]
    fn roundtrip_request() {
        let env = sample();
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed, env);
    }

    #[test]
    fn roundtrip_with_extra_header() {
        let ctx = Element::in_ns("wscoor", "urn:wscoor", "CoordinationContext")
            .with_child(Element::text_node("Identifier", "ctx-1"));
        let env = sample().with_header(ctx.clone());
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.header("urn:wscoor", "CoordinationContext").unwrap().child("Identifier").unwrap().text(), "ctx-1");
        assert_eq!(parsed.addressing().message_id(), Some("urn:uuid:42"));
    }

    #[test]
    fn roundtrip_fault() {
        let env = Envelope::fault(
            MessageHeaders::new(),
            Fault::new(FaultCode::MustUnderstand, "gossip header not understood"),
        );
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(parsed.is_fault());
        assert_eq!(parsed.as_fault().unwrap().code(), FaultCode::MustUnderstand);
        assert!(parsed.body().is_none());
    }

    #[test]
    fn roundtrip_empty_body() {
        let env = Envelope::empty(MessageHeaders::new().with_relates_to("urn:uuid:9"));
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(parsed.body().is_none());
        assert!(!parsed.is_fault());
        assert_eq!(parsed.addressing().relates_to(), Some("urn:uuid:9"));
    }

    #[test]
    fn non_envelope_rejected() {
        assert!(matches!(
            Envelope::parse("<a/>"),
            Err(SoapError::NotAnEnvelope(_))
        ));
    }

    #[test]
    fn missing_body_rejected() {
        let xml = "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"/>";
        assert!(matches!(Envelope::parse(xml), Err(SoapError::MissingPart("Body"))));
    }

    #[test]
    fn take_header_removes() {
        let mut env = sample().with_header(Element::in_ns("g", "urn:g", "Gossip"));
        assert!(env.take_header("urn:g", "Gossip").is_some());
        assert!(env.header("urn:g", "Gossip").is_none());
    }

    #[test]
    fn rewrite_to_for_rerouting() {
        let mut env = sample();
        env.addressing_mut().set_to("http://peer3/svc");
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.addressing().to(), Some("http://peer3/svc"));
    }

    #[test]
    fn wire_size_reflects_payload() {
        let small = Envelope::request(MessageHeaders::new(), Element::new("a"));
        let big = Envelope::request(
            MessageHeaders::new(),
            Element::new("a").with_text("x".repeat(1000)),
        );
        assert!(big.wire_size() > small.wire_size() + 900);
    }

    const ENV: &str = "http://www.w3.org/2003/05/soap-envelope";

    #[test]
    fn a_parsed_body_is_built_once_for_all_clones_and_handed_over_whole() {
        let parsed = Envelope::parse(&sample().to_xml()).unwrap();
        let clone = parsed.clone();
        let built = parsed.body().unwrap() as *const Element;
        assert_eq!(clone.body().unwrap() as *const Element, built, "clones share the tree");
        assert_eq!(clone.into_body(), sample().into_body(), "a shared payload is copied out");
        assert_eq!(parsed.into_body().unwrap().child("value").unwrap().text(), "hello & goodbye");
        assert_eq!(Envelope::empty(MessageHeaders::new()).into_body(), None);
    }

    #[test]
    fn parsing_an_owned_document_equals_parsing_a_borrowed_one() {
        for env in [
            sample(),
            Envelope::empty(MessageHeaders::request("http://dest", "urn:ack")),
            Envelope::fault(MessageHeaders::new(), Fault::new(FaultCode::Receiver, "boom")),
        ] {
            let wire = env.to_xml();
            let owned = Envelope::parse_owned(wire.clone()).unwrap();
            assert_eq!(owned, Envelope::parse(&wire).unwrap());
            assert_eq!(owned.to_xml(), wire);
            assert_eq!(owned.into_body(), env.into_body());
        }
        assert!(matches!(
            Envelope::parse_owned("<a/>".to_string()),
            Err(SoapError::NotAnEnvelope(_))
        ));
    }

    #[test]
    fn a_foreign_payload_travels_on_as_written() {
        // CDATA, a character reference and a prefix bound on env:Envelope:
        // none of which this writer would produce.
        let foreign = format!(
            "<env:Envelope xmlns:env=\"{ENV}\" xmlns:app=\"urn:app\"><env:Body>\
             <app:op k=\"a&#x26;b\"><![CDATA[1 < 2]]> &#x26; more</app:op>\
             </env:Body></env:Envelope>"
        );
        let parsed = Envelope::parse(&foreign).unwrap();
        let forwarded = parsed.clone().to_xml();
        // `app` is not a binding this writer declares, so the payload is
        // re-serialised from its tree rather than spliced...
        assert!(!forwarded.contains("CDATA"), "{forwarded}");
        let again = Envelope::parse(&forwarded).unwrap();
        assert_eq!(again, parsed);
        let body = again.body().unwrap();
        assert_eq!(body.name().namespace(), Some("urn:app"));
        assert_eq!(body.attr("k"), Some("a&b"));
        assert_eq!(body.text(), "1 < 2 & more");

        // ...while a payload that declares what it uses is spliced verbatim.
        let contained = foreign.replace(" xmlns:app=\"urn:app\"", "").replace(
            "<app:op k=",
            "<app:op xmlns:app=\"urn:app\" k=",
        );
        let parsed = Envelope::parse(&contained).unwrap();
        let forwarded = parsed.to_xml();
        assert!(forwarded.contains("<![CDATA[1 < 2]]> &#x26; more</app:op>"), "{forwarded}");
        assert_eq!(Envelope::parse(&forwarded).unwrap(), parsed);
    }

    #[test]
    fn a_payload_leaning_on_the_envelope_bindings_is_spliced() {
        // What this writer emits for a payload carrying an EPR: `wsa:` is
        // declared on env:Envelope, and every envelope re-declares it.
        let env = Envelope::request(
            MessageHeaders::request("http://dest", "urn:op"),
            EndpointReference::new("http://src").to_element("ReplyTo"),
        );
        let wire = env.to_xml();
        assert!(wire.contains("<env:Body><wsa:ReplyTo><wsa:Address>"), "{wire}");
        let parsed = Envelope::parse(&wire).unwrap();
        assert_eq!(parsed.to_xml(), wire);
        assert_eq!(parsed, env);
        // Inside someone else's document the writer's scope is not ours
        // to vouch for: the tree form is written instead.
        let mut w = XmlWriter::new();
        w.start_element(&wsg_xml::QName::new("outer")).unwrap();
        w.declare_namespace("wsa", "urn:not-addressing").unwrap();
        parsed.write_into(&mut w).unwrap();
        w.end_element().unwrap();
        let nested = Element::parse(&w.finish().unwrap()).unwrap();
        let reply_to = &nested.select("Envelope/Body/ReplyTo")[0];
        assert_eq!(reply_to.name().namespace(), Some(crate::WSA_NS));
    }

    #[test]
    fn structural_faults_surface_in_tree_walk_order_after_well_formedness() {
        let envelope = |content: &str| {
            format!(
                "<env:Envelope xmlns:env=\"{ENV}\" xmlns:wsa=\"{}\">{content}</env:Envelope>",
                crate::WSA_NS
            )
        };
        // Malformed XML anywhere beats every structural finding.
        assert!(matches!(Envelope::parse("<a><b></a>"), Err(SoapError::Xml(_))));
        assert!(matches!(Envelope::parse("<a/><b/>"), Err(SoapError::Xml(_))));
        let bad_body = envelope("<env:Header><wsa:ReplyTo/></env:Header><env:Body><x>&nope;</x></env:Body>");
        assert!(matches!(Envelope::parse(&bad_body), Err(SoapError::Xml(_))));
        // Then: headers before the missing body, the body before its fault.
        let bad_epr = envelope("<env:Header><wsa:ReplyTo/></env:Header>");
        assert!(matches!(Envelope::parse(&bad_epr), Err(SoapError::Addressing(_))));
        assert!(matches!(
            Envelope::parse(&envelope("<env:Header/>")),
            Err(SoapError::MissingPart("Body"))
        ));
        let bad_fault = envelope("<env:Body><env:Fault/></env:Body>");
        assert!(matches!(Envelope::parse(&bad_fault), Err(SoapError::MissingPart("Fault/Code/Value"))));
        // Parts in any order, first of each kind wins, the rest ignored.
        let shuffled = envelope(
            "<env:Body><first/><second/></env:Body><other/>\
             <env:Header><wsa:To>http://a</wsa:To></env:Header><env:Body><late/></env:Body>",
        );
        let parsed = Envelope::parse(&shuffled).unwrap();
        assert_eq!(parsed.addressing().to(), Some("http://a"));
        assert_eq!(parsed.body().unwrap().local_name(), "first");
    }
}
