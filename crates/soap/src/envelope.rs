//! The SOAP 1.2 envelope: one recording pass, trees on demand.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, LazyLock, OnceLock};

use wsg_net::cov;
use wsg_xml::escape::escape_text_into;
use wsg_xml::{Element, QName, RawEvent, XmlError, XmlReader, XmlWriter};

use crate::addressing::MessageHeaders;
use crate::error::SoapError;
use crate::fault::Fault;
use crate::{qnames, SOAP_ENV_NS, WSA_NS};

/// A SOAP 1.2 message: WS-Addressing properties, additional header blocks
/// and a body.
///
/// The body is either one application payload element or a [`Fault`].
/// The addressing properties are what intermediaries route on, so a parse
/// always decodes them; every other header block and the payload are
/// opaque freight to most hops, so a parsed envelope keeps them as the
/// sender's bytes — where each starts and ends, what it is called, whether
/// it must be understood — and builds a tree only when one is asked for
/// ([`Envelope::header`], [`Envelope::body`]). Clones share the text, the
/// payload and, until one edits them, the header blocks: a clone costs the
/// addressing properties.
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
#[derive(Debug, Clone)]
pub struct Envelope {
    addressing: MessageHeaders,
    // Shared across clones until one of them edits its blocks: a forward
    // to `f` peers rewrites addressing `f` times, the blocks once.
    blocks: Arc<Vec<Block>>,
    body: Body,
}

impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        self.addressing == other.addressing
            && self.headers() == other.headers()
            && self.body == other.body
    }
}

impl Eq for Envelope {}

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

/// An element as serialised XML: a span of the document it arrived in (or
/// was first written into), which every fragment cut from it shares.
#[derive(Debug, Clone)]
struct Fragment {
    source: Arc<String>,
    span: Range<usize>,
    scope: Scope,
}

/// What a fragment needs of the namespace bindings that were in scope
/// around it.
#[derive(Debug, Clone)]
enum Scope {
    /// Nothing but the `env` / `wsa` bindings [`Envelope::write_into`]
    /// declares: the bytes mean the same inside any envelope this module
    /// writes.
    Envelope,
    /// The `(prefix, uri)` bindings it was cut out of, outermost first.
    Foreign(Vec<(String, String)>),
}

/// The bindings around a [`Scope::Envelope`] fragment.
static ENVELOPE_BINDINGS: LazyLock<[(String, String); 2]> = LazyLock::new(|| {
    [("env".into(), SOAP_ENV_NS.into()), ("wsa".into(), WSA_NS.into())]
});

const PASSED: &str = "a fragment passed the same tokenizer when it was cut";

impl Fragment {
    fn xml(&self) -> &str {
        &self.source[self.span.clone()]
    }

    fn portable(&self) -> bool {
        matches!(self.scope, Scope::Envelope)
    }

    /// A reader over the fragment in the scope it was cut from.
    fn reader(&self) -> XmlReader<'_> {
        let outer = match &self.scope {
            Scope::Envelope => ENVELOPE_BINDINGS.as_slice(),
            Scope::Foreign(outer) => outer,
        };
        XmlReader::with_bindings(self.xml(), outer)
    }

    fn to_tree(&self) -> Element {
        let mut reader = self.reader();
        reader.next_raw().expect(PASSED);
        Element::from_open(&mut reader).expect(PASSED)
    }
}

/// The application payload: the tree it was built from, or the bytes it
/// arrived as and — the first time someone asks, for every clone at
/// once — the tree built from them.
#[derive(Debug)]
struct Payload {
    tree: OnceLock<Element>,
    wire: Option<Fragment>,
}

impl Payload {
    fn from_tree(tree: Element) -> Arc<Self> {
        Arc::new(Payload { tree: OnceLock::from(tree), wire: None })
    }

    fn from_wire(wire: Fragment) -> Arc<Self> {
        Arc::new(Payload { tree: OnceLock::new(), wire: Some(wire) })
    }

    fn tree(&self) -> &Element {
        self.tree.get_or_init(|| {
            self.wire.as_ref().expect("a payload holds a tree or a fragment").to_tree()
        })
    }

    fn into_tree(self) -> Element {
        self.tree.into_inner().unwrap_or_else(|| {
            self.wire.expect("a payload holds a tree or a fragment").to_tree()
        })
    }

    /// Write the payload as content of the open `env:Body`. `fresh`: the
    /// writer held nothing before this envelope, so its scope is exactly
    /// the `env` / `wsa` bindings the envelope declared.
    fn write_into(&self, w: &mut XmlWriter, fresh: bool) -> Result<(), XmlError> {
        match &self.wire {
            Some(fragment) if fresh && fragment.portable() => {
                cov!();
                w.raw(fragment.xml())
            }
            _ => {
                // Built here, or a fragment leaning on bindings this
                // document does not declare (or the writer carries a
                // foreign scope): the tree writer re-declares whatever the
                // payload uses.
                cov!();
                self.tree().write_into(w)
            }
        }
    }
}

/// One non-addressing header block: a tree (built locally, or built from
/// `wire` the first time someone asked), the bytes it arrived as, or both.
#[derive(Debug, Clone)]
struct Block {
    // Boxed: most blocks of most messages are never looked into, and the
    // list of them is allocated per message.
    tree: OnceLock<Box<Element>>,
    wire: Option<Recorded>,
}

/// What the parse kept of a header block instead of building it.
#[derive(Debug, Clone)]
struct Recorded {
    xml: Fragment,
    // The block's resolved name, as spans of `xml.source`.
    namespace: Option<Range<usize>>,
    local: Range<usize>,
    must_understand: bool,
}

impl Block {
    fn from_tree(tree: Element) -> Self {
        Block { tree: OnceLock::from(Box::new(tree)), wire: None }
    }

    fn tree(&self) -> &Element {
        self.tree.get_or_init(|| {
            let wire = self.wire.as_ref().expect("a block holds a tree or a fragment");
            Box::new(wire.xml.to_tree())
        })
    }

    fn is(&self, ns: &str, local: &str) -> bool {
        match &self.wire {
            Some(wire) => {
                let source = wire.xml.source.as_str();
                wire.namespace.clone().map(|span| &source[span]) == Some(ns)
                    && &source[wire.local.clone()] == local
            }
            None => self.tree().name().matches(Some(ns), local),
        }
    }

    /// The block's name when it carries a true `env:mustUnderstand`.
    fn must_be_understood(&self) -> Option<QName> {
        match &self.wire {
            Some(wire) => wire.must_understand.then(|| {
                cov!();
                let source = wire.xml.source.as_str();
                let local = &source[wire.local.clone()];
                match wire.namespace.clone() {
                    Some(span) => QName::with_ns(&source[span], local),
                    None => QName::new(local),
                }
            }),
            None => {
                let tree = self.tree();
                let flag = tree.attr_ns(SOAP_ENV_NS, "mustUnderstand");
                flag.is_some_and(is_true).then(|| tree.name().clone())
            }
        }
    }

    /// Write the block as content of the open `env:Header`; `fresh` as
    /// for [`Payload::write_into`].
    fn write_into(&self, w: &mut XmlWriter, fresh: bool) -> Result<(), XmlError> {
        match &self.wire {
            Some(wire) if fresh && wire.xml.portable() => {
                cov!();
                w.raw(wire.xml.xml())
            }
            _ => {
                cov!();
                self.tree().write_into(w)
            }
        }
    }

    /// For each of `children`, the text of the block's first child element
    /// `(ns, child)` — read off the block's bytes when it has no tree.
    fn child_texts<const N: usize>(
        &self,
        ns: &str,
        children: [&str; N],
    ) -> [Option<Cow<'_, str>>; N] {
        let wire = match (self.tree.get(), &self.wire) {
            (None, Some(wire)) => wire,
            _ => {
                let tree = self.tree();
                return children.map(|child| tree.child_ns(ns, child).map(|c| Cow::Owned(c.text())));
            }
        };
        let mut reader = wire.xml.reader();
        reader.next_raw().expect(PASSED); // the block's own start tag
        read_child_texts(&mut reader, ns, children).expect(PASSED)
    }
}

/// For each of `children`, the text of the first child element `(ns,
/// child)` of the element `reader` just started — consuming through its
/// end tag. What [`Element::child_ns`] and [`Element::text`] find on the
/// element's tree, read off the tokenizer: text that needed no reference
/// resolved is borrowed.
pub(crate) fn read_child_texts<'a, const N: usize>(
    reader: &mut XmlReader<'a>,
    ns: &str,
    children: [&str; N],
) -> Result<[Option<Cow<'a, str>>; N], XmlError> {
    let mut found = std::array::from_fn(|_| None);
    loop {
        match reader.next_raw()? {
            RawEvent::Start => {
                let (child_ns, local) = reader.element_name();
                let wanted = children
                    .iter()
                    .position(|child| *child == local)
                    .filter(|i| child_ns == Some(ns) && found[*i].is_none());
                match wanted {
                    Some(i) => {
                        let text = reader.direct_text()?;
                        if let Cow::Owned(_) = text {
                            // A reference resolved, or runs joined: not a
                            // slice of the text any more.
                            cov!();
                        }
                        found[i] = Some(text);
                    }
                    None => reader.skip_element()?,
                }
            }
            RawEvent::End | RawEvent::Eof => return Ok(found),
            _ => {}
        }
    }
}

/// The two spellings of a true `xs:boolean`.
fn is_true(value: &str) -> bool {
    value == "true" || value == "1"
}

impl Envelope {
    /// A request/notification message with the given addressing and payload.
    pub fn request(addressing: MessageHeaders, payload: Element) -> Self {
        Envelope {
            addressing,
            blocks: Arc::default(),
            body: Body::Payload(Payload::from_tree(payload)),
        }
    }

    /// A fault message.
    pub fn fault(addressing: MessageHeaders, fault: Fault) -> Self {
        Envelope { addressing, blocks: Arc::default(), body: Body::Fault(fault) }
    }

    /// A message with an empty body (e.g. an acknowledgement).
    pub fn empty(addressing: MessageHeaders) -> Self {
        Envelope { addressing, blocks: Arc::default(), body: Body::Empty }
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

    /// Non-addressing header blocks, in document order. On a parsed
    /// envelope the first call builds their trees.
    pub fn headers(&self) -> Vec<&Element> {
        self.blocks.iter().map(Block::tree).collect()
    }

    /// First header block matching namespace + local name. On a parsed
    /// envelope the first call builds that block's tree.
    pub fn header(&self, ns: &str, local: &str) -> Option<&Element> {
        self.blocks.iter().find(|block| block.is(ns, local)).map(Block::tree)
    }

    /// For each of `children`, the text of the first child element
    /// `(ns, child)` of the first header block `(ns, block)` — exactly
    /// `header(ns, block)?.child_ns(ns, child).map(|c| c.text())`, but on
    /// a parsed envelope read through the tokenizer off the bytes the
    /// block arrived as: no tree is built, and text that needed no
    /// reference resolved is borrowed. `None` when there is no such block.
    pub fn header_texts<const N: usize>(
        &self,
        ns: &str,
        block: &str,
        children: [&str; N],
    ) -> Option<[Option<Cow<'_, str>>; N]> {
        let block = self.blocks.iter().find(|candidate| candidate.is(ns, block))?;
        Some(block.child_texts(ns, children))
    }

    /// [`Envelope::header_texts`] for one child.
    pub fn header_text(&self, ns: &str, block: &str, child: &str) -> Option<Cow<'_, str>> {
        let [text] = self.header_texts(ns, block, [child])?;
        text
    }

    /// Names of the header blocks that carry a true `env:mustUnderstand`,
    /// in document order.
    pub fn must_understand(&self) -> impl Iterator<Item = QName> + '_ {
        self.blocks.iter().filter_map(Block::must_be_understood)
    }

    /// Add a header block.
    pub fn push_header(&mut self, header: Element) {
        Arc::make_mut(&mut self.blocks).push(Block::from_tree(header));
    }

    /// Remove the first header block matching namespace + local name;
    /// whether there was one. The other blocks stay as they are — a block
    /// still held as the bytes it arrived in is forwarded as those bytes.
    pub fn remove_header(&mut self, ns: &str, local: &str) -> bool {
        let Some(idx) = self.blocks.iter().position(|block| block.is(ns, local)) else {
            return false;
        };
        Arc::make_mut(&mut self.blocks).remove(idx);
        true
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
        if !self.addressing.is_empty() || !self.blocks.is_empty() {
            let mut header = Element::in_ns("env", SOAP_ENV_NS, "Header");
            let conversation = self.addressing.conversation_blocks().into_iter();
            let blocks = self.headers().into_iter().cloned();
            for block in conversation.chain(blocks).chain(self.addressing.copy_blocks()) {
                header.push_child(block);
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
    /// header block or payload that already exists as bytes is spliced in
    /// verbatim when it is self-contained or leans only on the `env` /
    /// `wsa` bindings declared here, so a foreign sender's CDATA sections
    /// and character references travel on as written; one that leans on
    /// anything else is written from its tree.
    ///
    /// # Errors
    ///
    /// Propagates writer errors (e.g. an invalid payload element name).
    pub fn write_into(&self, w: &mut XmlWriter) -> Result<(), XmlError> {
        let fresh = w.depth() == 0;
        let header = !self.addressing.is_empty() || !self.blocks.is_empty();
        self.write_head(w, fresh, header)?;
        if header {
            self.addressing.write_copy_head(w)?;
        }
        self.write_tail(w, fresh, header)
    }

    /// Everything [`Envelope::write_into`] writes before `wsa:To` and
    /// `wsa:MessageID`: the root, and — when there is a `header` — what
    /// names the conversation and the other header blocks.
    fn write_head(&self, w: &mut XmlWriter, fresh: bool, header: bool) -> Result<(), XmlError> {
        w.start_element(&qnames::ENVELOPE)?;
        w.declare_namespace("env", SOAP_ENV_NS)?;
        w.declare_namespace("wsa", WSA_NS)?;
        if header {
            // What names the conversation before what names the copy:
            // header order is free, and this one lets consecutive
            // messages to a peer start with the same bytes (the batch
            // wrapper sends them once) while the `f` copies of one
            // notification still differ in one short run (`To` next to
            // `MessageID`), which is what the sender queues share on and
            // what [`Envelope::write_copy_frame`] splices.
            w.start_element(&qnames::HEADER)?;
            self.addressing.write_conversation_blocks(w)?;
            for block in self.blocks.iter() {
                block.write_into(w, fresh)?;
            }
        }
        Ok(())
    }

    /// Everything [`Envelope::write_into`] writes after `wsa:MessageID`:
    /// `wsa:RelatesTo` and the end of the header, when there is one, and
    /// the body.
    fn write_tail(&self, w: &mut XmlWriter, fresh: bool, header: bool) -> Result<(), XmlError> {
        if header {
            self.addressing.write_relates_to(w)?;
            w.end_element()?;
        }
        w.start_element(&qnames::BODY)?;
        match &self.body {
            Body::Payload(p) => p.write_into(w, fresh)?,
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

    /// Serialise this envelope once as the frame of copies that differ
    /// only in `wsa:To` and `wsa:MessageID` — a message re-routed to
    /// several peers — into `buf`, cleared first and its allocation
    /// reused: [`CopyFrame::copy`] then makes each copy by splicing its
    /// two properties between the bytes before them and the bytes after.
    /// A copy is byte for byte what [`Envelope::write_xml`] writes for a
    /// clone of this envelope with `To` and `MessageID` set to its own.
    ///
    /// ```
    /// use wsg_soap::{Envelope, MessageHeaders};
    /// use wsg_xml::Element;
    ///
    /// let template = Envelope::request(
    ///     MessageHeaders::request("urn:topic", "urn:stock:Notify"),
    ///     Element::text_node("tick", "ACME"),
    /// );
    /// let mut scratch = String::new();
    /// let frame = template.write_copy_frame(&mut scratch);
    /// let copy = frame.copy("http://peer3", "urn:uuid:7");
    ///
    /// let mut clone = template.clone();
    /// clone.addressing_mut().set_to("http://peer3");
    /// clone.addressing_mut().set_message_id("urn:uuid:7");
    /// assert_eq!(copy, clone.to_xml());
    /// ```
    pub fn write_copy_frame<'b>(&self, buf: &'b mut String) -> CopyFrame<'b> {
        let mut w = XmlWriter::new_into(std::mem::take(buf));
        w.declaration().expect("declaration is written first");
        // A copy names its destination, so it always has a header.
        self.write_head(&mut w, true, true).expect("envelope is always writable");
        let tail =
            w.capture(|w| self.write_tail(w, true, true)).expect("envelope is always writable").len();
        *buf = w.finish().expect("envelope is always balanced");
        let (head, tail) = buf.split_at(buf.len() - tail);
        CopyFrame { head, tail }
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

    /// Parse an envelope from its XML form, in one pass of the tokenizer
    /// that checks the whole document for well-formedness, decodes the
    /// WS-Addressing properties (and a `env:Fault` body) and records where
    /// every other header block and the payload lie. The envelope keeps
    /// its own copy of the text.
    ///
    /// # Errors
    ///
    /// Returns [`SoapError::Xml`] for malformed XML, and
    /// [`SoapError::NotAnEnvelope`]/[`SoapError::MissingPart`] for documents
    /// that are not SOAP 1.2 messages.
    pub fn parse(xml: &str) -> Result<Self, SoapError> {
        Self::parse_owned(xml.to_string())
    }

    /// [`Envelope::parse`] for a caller that is done with the text: the
    /// envelope keeps `xml` itself instead of a copy — what a receive
    /// path wants, where most messages are duplicates nobody will look
    /// into. The text lives as long as the envelope (and its clones) do.
    ///
    /// # Errors
    ///
    /// As [`Envelope::parse`].
    pub fn parse_owned(xml: String) -> Result<Self, SoapError> {
        let source = Arc::new(xml);
        let mut blocks = Vec::new();
        let mut first = None;
        let addressing = read_parts(
            &mut XmlReader::new(&source),
            |reader, start, around| record_block(reader, &source, start, around, &mut blocks),
            |reader| read_body(reader, &source, &mut first),
        )?;
        let body = match first {
            None => {
                cov!();
                Body::Empty
            }
            Some(FirstChild::Fault(fault)) => {
                cov!();
                Body::Fault(Fault::from_element(&fault)?)
            }
            Some(FirstChild::Payload(fragment)) => {
                cov!();
                Body::Payload(Payload::from_wire(fragment))
            }
        };
        Ok(Envelope { addressing, blocks: Arc::new(blocks), body })
    }
}

/// The serialised frame of one message's copies: the bytes before
/// `wsa:To` and the bytes after `wsa:MessageID`, written once by
/// [`Envelope::write_copy_frame`].
#[derive(Debug)]
pub struct CopyFrame<'b> {
    head: &'b str,
    tail: &'b str,
}

impl CopyFrame<'_> {
    /// The copy addressed `to` with `message_id`, as one wire-sized string.
    pub fn copy(&self, to: &str, message_id: &str) -> String {
        // Exact unless a property needs escaping.
        let mut wire = String::with_capacity(
            self.head.len() + COPY_TAGS_LEN + to.len() + message_id.len() + self.tail.len(),
        );
        wire.push_str(self.head);
        // What `MessageHeaders::write_copy_head` writes inside an envelope,
        // where `wsa` is bound.
        for (open, text, close) in
            [("<wsa:To>", to, "</wsa:To>"), ("<wsa:MessageID>", message_id, "</wsa:MessageID>")]
        {
            wire.push_str(open);
            escape_text_into(&mut wire, text);
            wire.push_str(close);
        }
        wire.push_str(self.tail);
        wire
    }
}

/// The tags around a copy's `To` and `MessageID`.
const COPY_TAGS_LEN: usize = "<wsa:To></wsa:To><wsa:MessageID></wsa:MessageID>".len();

/// The one pass over an envelope document: check all of it for
/// well-formedness, decode the WS-Addressing properties, and hand every
/// other header block (its start tag read; with the offset of its `<` and
/// the scope depth it stands in) to `on_block` and `env:Body` (its start
/// tag read) to `on_body` — each must consume its element through the end
/// tag.
fn read_parts<'a>(
    reader: &mut XmlReader<'a>,
    mut on_block: impl FnMut(&mut XmlReader<'a>, usize, usize) -> Result<(), XmlError>,
    on_body: impl FnMut(&mut XmlReader<'a>) -> Result<(), XmlError>,
) -> Result<MessageHeaders, SoapError> {
    read_root(reader)?;
    let mut addressing = MessageHeaders::new();
    let mut undecodable = None;
    let shape = walk(
        reader,
        |reader| read_header(reader, &mut addressing, &mut undecodable, &mut on_block),
        on_body,
    )?;
    reader.finish()?;

    // The document is well-formed; now the order a tree walk would find
    // structural faults in: root, headers, body.
    shape.is_envelope()?;
    undecodable.map_or(Ok(()), Err)?;
    shape.has_body()?;
    Ok(addressing)
}

/// Read the prologue up to and including the root start tag, which
/// [`XmlReader::element_name`] then names.
pub(crate) fn read_root(reader: &mut XmlReader<'_>) -> Result<(), XmlError> {
    // Without a root element the tokenizer errors before it reports `Eof`.
    while reader.next_raw()? != RawEvent::Start {}
    Ok(())
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

/// Walk the document element (its start tag already read) through its end
/// tag: the first `env:Header` child goes to `on_header`, the first
/// `env:Body` child to `on_body` — each must consume that element through
/// its end tag — and everything else is skipped. This is the one place
/// that knows where an envelope keeps its parts; the full parse and the
/// transport's shape check differ only in what the callbacks record.
pub(crate) fn walk<'a>(
    reader: &mut XmlReader<'a>,
    mut on_header: impl FnMut(&mut XmlReader<'a>) -> Result<(), XmlError>,
    mut on_body: impl FnMut(&mut XmlReader<'a>) -> Result<(), XmlError>,
) -> Result<Shape, XmlError> {
    if reader.element_name() != (Some(SOAP_ENV_NS), "Envelope") {
        let root = reader.element_qname().to_string();
        reader.skip_element()?;
        return Ok(Shape { foreign_root: Some(root), body: false });
    }
    let (mut header, mut body) = (false, false);
    loop {
        match reader.next_raw()? {
            RawEvent::Start => match reader.element_name() {
                (Some(SOAP_ENV_NS), "Header") if !header => {
                    cov!();
                    header = true;
                    on_header(reader)?;
                }
                (Some(SOAP_ENV_NS), "Body") if !body => {
                    cov!();
                    body = true;
                    on_body(reader)?;
                }
                _ => {
                    cov!();
                    reader.skip_element()?;
                }
            },
            RawEvent::End => return Ok(Shape { foreign_root: None, body }),
            _ => {}
        }
    }
}

/// Where `part` lies in `source`, when it is a slice of it.
fn span_in(source: &str, part: &str) -> Option<Range<usize>> {
    let start = (part.as_ptr() as usize).checked_sub(source.as_ptr() as usize)?;
    let end = start.checked_add(part.len())?;
    (end <= source.len()).then_some(start..end)
}

/// Frame the element `reader` just started — its `<` at byte `start` of
/// `source`, the binding watermark reset before its start tag was read —
/// skipping through its end tag. `around` is the scope depth the element
/// stands in.
fn cut(
    reader: &mut XmlReader<'_>,
    source: &Arc<String>,
    start: usize,
    around: usize,
) -> Result<Fragment, XmlError> {
    reader.skip_element()?;
    // A watermark above the surrounding depth: every prefix resolved
    // inside the element itself.
    let contained = reader.binding_watermark() > around;
    let scope = if contained
        || reader.bindings().all(|b| matches!(b, ("env", SOAP_ENV_NS) | ("wsa", WSA_NS)))
    {
        cov!();
        Scope::Envelope
    } else {
        cov!();
        Scope::Foreign(reader.in_scope_bindings())
    };
    Ok(Fragment { source: Arc::clone(source), span: start..reader.position(), scope })
}

/// Go through the blocks of the `env:Header` just started, consuming
/// through its end tag: `wsa:` blocks are decoded into `addressing` (the
/// first one that cannot be is kept in `undecodable`, for the caller to
/// report once the whole document has proved well-formed), every other
/// block goes to `on_block`.
fn read_header<'a>(
    reader: &mut XmlReader<'a>,
    addressing: &mut MessageHeaders,
    undecodable: &mut Option<SoapError>,
    mut on_block: impl FnMut(&mut XmlReader<'a>, usize, usize) -> Result<(), XmlError>,
) -> Result<(), XmlError> {
    let around = reader.scope_depth();
    loop {
        // After the previous event the cursor sits exactly on the next
        // construct: for a start tag, the offset of its `<`.
        let start = reader.position();
        reader.reset_binding_watermark();
        match reader.next_raw()? {
            RawEvent::Start if reader.element_name().0 == Some(WSA_NS) => {
                if let Err(error) = addressing.read_block(reader)? {
                    undecodable.get_or_insert(error);
                }
            }
            RawEvent::Start => on_block(reader, start, around)?,
            RawEvent::End => return Ok(()),
            _ => {}
        }
    }
}

/// Record the header block `reader` just started — `start` and `around`
/// as for [`cut`] — in `blocks`, skipping through its end tag.
fn record_block(
    reader: &mut XmlReader<'_>,
    source: &Arc<String>,
    start: usize,
    around: usize,
    blocks: &mut Vec<Block>,
) -> Result<(), XmlError> {
    let (ns, local) = reader.element_name();
    let name = span_in(source, local).zip(match ns {
        Some(ns) => span_in(source, ns).map(Some),
        None => Some(None),
    });
    let flag = reader.attribute(Some(SOAP_ENV_NS), "mustUnderstand");
    let must_understand = flag.is_some_and(|value| is_true(&value));
    let xml = cut(reader, source, start, around)?;
    if blocks.is_empty() {
        // A notification carries two: its coordination context and its
        // gossip header.
        blocks.reserve_exact(2);
    }
    blocks.push(match name {
        Some((local, namespace)) => {
            cov!();
            let wire = Recorded { xml, namespace, local, must_understand };
            Block { tree: OnceLock::new(), wire: Some(wire) }
        }
        // A namespace URI written with a character reference is no slice
        // of the text: keep the tree instead.
        None => {
            cov!();
            Block::from_tree(xml.to_tree())
        }
    });
    Ok(())
}

/// The first child element of `env:Body`, as far as the parse decodes it.
enum FirstChild {
    Payload(Fragment),
    Fault(Element),
}

/// Frame the content of the `env:Body` just started, consuming through
/// its end tag: a leading `env:Fault` is built, any other first child is
/// skipped over and kept as its byte span of the document; later children
/// are skipped and dropped.
fn read_body(
    reader: &mut XmlReader<'_>,
    source: &Arc<String>,
    first: &mut Option<FirstChild>,
) -> Result<(), XmlError> {
    let around = reader.scope_depth();
    loop {
        let start = reader.position();
        reader.reset_binding_watermark();
        match reader.next_raw()? {
            RawEvent::Start => {
                if first.is_some() {
                    cov!();
                    reader.skip_element()?;
                } else if reader.element_name() == (Some(SOAP_ENV_NS), "Fault") {
                    cov!();
                    *first = Some(FirstChild::Fault(Element::from_open(reader)?));
                } else {
                    *first = Some(FirstChild::Payload(cut(reader, source, start, around)?));
                }
            }
            RawEvent::End => return Ok(()),
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

    /// Each of `heads` as [`CopyFrame::copy`] must write it: a clone of
    /// `template` with its `To` and `MessageID` set, written whole.
    fn cloned_copies(template: &Envelope, heads: &[(String, String)]) -> Vec<String> {
        let mut scratch = String::new();
        heads
            .iter()
            .map(|(to, message_id)| {
                let mut copy = template.clone();
                copy.addressing_mut().set_to(to.as_str());
                copy.addressing_mut().set_message_id(message_id.as_str());
                copy.write_xml(&mut scratch);
                scratch.clone()
            })
            .collect()
    }

    /// A random message as some hop holds it when it re-routes it: built
    /// here (a publication), parsed from what this writer writes (header
    /// blocks and payload spliced from the text, `Scope::Envelope`), or
    /// parsed from a sender that declared the application prefix once on
    /// `env:Envelope` (`Scope::Foreign`: written from their trees).
    fn arbitrary_template(g: &mut wsg_net::check::Gen) -> Envelope {
        let text = |g: &mut wsg_net::check::Gen| {
            g.string_from(&['a', 'Z', '0', '&', '<', '>', ']', '"', ' ', '\u{e9}'], 12)
        };
        let mut addressing = MessageHeaders::new();
        addressing.set_action(text(g));
        if g.bool(0.5) {
            addressing.set_to(text(g));
        }
        if g.bool(0.5) {
            addressing.set_message_id(text(g));
        }
        if g.bool(0.5) {
            addressing.set_from(EndpointReference::new(text(g)));
        }
        if g.bool(0.3) {
            addressing = addressing.with_reply_to(EndpointReference::new(text(g)));
        }
        if g.bool(0.5) {
            addressing = addressing.with_relates_to(text(g));
        }
        let app = |local: &str| Element::in_ns("app", "urn:app", local);
        let mut envelope = match g.usize(0..=5) {
            0 => Envelope::empty(addressing),
            1 => Envelope::fault(addressing, Fault::new(FaultCode::Receiver, text(g))),
            _ => {
                let payload = app("op").with_attr("k", text(g)).with_child(app("v").with_text(text(g)));
                Envelope::request(addressing, payload)
            }
        };
        for i in 0..g.usize(0..=3) {
            envelope.push_header(app(&format!("Block{i}")).with_text(text(g)));
        }
        match g.usize(0..=2) {
            0 => envelope,
            1 => Envelope::parse(&envelope.to_xml()).unwrap(),
            _ => {
                let declared = " xmlns:app=\"urn:app\"";
                let leaning = envelope.to_xml().replace(declared, "").replacen(
                    "<env:Envelope",
                    &format!("<env:Envelope{declared}"),
                    1,
                );
                Envelope::parse(&leaning).unwrap()
            }
        }
    }

    #[test]
    fn a_copy_frame_splices_what_writing_each_clone_whole_writes() {
        use wsg_net::check::{run, Gen};
        use wsg_net::prop_assert_eq;

        let spliced = std::cell::Cell::new([0usize; 3]);
        run("a_copy_frame_splices_what_writing_each_clone_whole_writes", 512, |g: &mut Gen| {
            let template = arbitrary_template(g);
            let tricky = ["http://node3/gossip", "a]]>b", "x & y", "<to>", "", "urn:uuid:\u{e9}"];
            let head = |g: &mut Gen| match g.usize(0..=2) {
                0 => g.ascii_string(24),
                _ => g.pick(&tricky).to_string(),
            };
            let copies = match g.usize(0..=2) {
                0 => 0,
                1 => 1,
                _ => g.usize(2..=6),
            };
            let heads: Vec<(String, String)> = (0..copies).map(|_| (head(g), head(g))).collect();

            let mut scratch = String::from("stale content to be cleared");
            let frame = template.write_copy_frame(&mut scratch);
            let copies: Vec<String> = heads.iter().map(|(to, id)| frame.copy(to, id)).collect();
            prop_assert_eq!(copies, cloned_copies(&template, &heads));
            let mut tally = spliced.get();
            tally[heads.len().min(2)] += 1;
            spliced.set(tally);
            Ok(())
        });
        assert!(spliced.get().iter().all(|&cases| cases > 0), "{:?}", spliced.get());
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
    fn remove_header_removes() {
        let mut env = sample().with_header(Element::in_ns("g", "urn:g", "Gossip"));
        assert!(env.remove_header("urn:g", "Gossip"));
        assert!(env.header("urn:g", "Gossip").is_none());
        assert!(!env.remove_header("urn:g", "Gossip"));
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

    /// An envelope with `blocks` verbatim inside `env:Header` and
    /// `root_attrs` verbatim on `env:Envelope`.
    fn with_blocks(root_attrs: &str, blocks: &str) -> String {
        format!(
            "<env:Envelope xmlns:env=\"{ENV}\"{root_attrs}><env:Header>\
             <wsa:To xmlns:wsa=\"{}\">http://a</wsa:To>{blocks}\
             </env:Header><env:Body><op/></env:Body></env:Envelope>",
            crate::WSA_NS
        )
    }

    #[test]
    fn header_blocks_are_read_in_place_and_built_one_at_a_time() {
        let parsed = Envelope::parse(&with_blocks(
            "",
            "<g:Gossip xmlns:g=\"urn:g\"><g:Origin>http://n1</g:Origin>\
             <g:Seq> 7 </g:Seq><g:Origin>second</g:Origin>\
             <g:Note>a &amp; <![CDATA[<b>]]><g:Note>nested</g:Note></g:Note>\
             <o:Seq xmlns:o=\"urn:o\">other</o:Seq></g:Gossip>\
             <c:Ctx xmlns:c=\"urn:c\"><c:Id>1</c:Id></c:Ctx>",
        ))
        .unwrap();
        assert_eq!(parsed.addressing().to(), Some("http://a"));
        let [origin, seq, note, missing] =
            parsed.header_texts("urn:g", "Gossip", ["Origin", "Seq", "Note", "Missing"]).unwrap();
        assert!(matches!(origin, Some(Cow::Borrowed("http://n1"))), "first child, borrowed");
        assert!(matches!(seq, Some(Cow::Borrowed(" 7 "))), "verbatim, whitespace and all");
        assert_eq!(note.as_deref(), Some("a & <b>"), "direct text only, references resolved");
        assert_eq!(missing, None);
        assert_eq!(parsed.header_text("urn:c", "Ctx", "Id").as_deref(), Some("1"));
        assert_eq!(parsed.header_texts("urn:g", "Ctx", ["Id"]), None, "names are resolved");
        assert!(parsed.blocks.iter().all(|block| block.tree.get().is_none()), "nothing built");

        // Asking for one block builds that block, and answers do not change.
        let gossip = parsed.header("urn:g", "Gossip").unwrap();
        assert_eq!(gossip.child_ns("urn:g", "Seq").unwrap().text(), " 7 ");
        assert!(parsed.blocks[1].tree.get().is_none());
        assert_eq!(parsed.header_text("urn:g", "Gossip", "Note").as_deref(), Some("a & <b>"));
        assert_eq!(parsed.headers().len(), 2);
    }

    #[test]
    fn the_must_understand_flags_are_recorded_by_the_parse() {
        let wire = with_blocks(
            "",
            "<a:One xmlns:a=\"urn:a\" env:mustUnderstand=\"1\"/>\
             <a:Two xmlns:a=\"urn:a\" env:mustUnderstand=\"false\"/>\
             <Three env:mustUnderstand=\"true\"/>\
             <a:Four xmlns:a=\"urn:a\" mustUnderstand=\"1\"/>\
             <a:Five xmlns:a=\"urn:a&#x26;b\" env:mustUnderstand=\"1\"/>",
        );
        let parsed = Envelope::parse(&wire).unwrap();
        let expected =
            [QName::with_ns("urn:a", "One"), QName::new("Three"), QName::with_ns("urn:a&b", "Five")];
        assert_eq!(parsed.must_understand().collect::<Vec<_>>(), expected);
        assert!(parsed.blocks[..4].iter().all(|block| block.tree.get().is_none()));
        // A namespace written with a reference is no slice of the text:
        // that block is kept as its tree.
        assert!(parsed.blocks[4].wire.is_none());
        // Locally built envelopes answer from their trees.
        let flag = QName::with_ns(ENV, "mustUnderstand").with_prefix("env");
        let built = sample().with_header(Element::in_ns("a", "urn:a", "One").with_attr(flag, "1"));
        assert_eq!(built.must_understand().collect::<Vec<_>>(), expected[..1]);
    }

    #[test]
    fn unedited_header_blocks_are_spliced_and_edits_leave_clones_alone() {
        // Self-contained, or leaning on the env / wsa bindings every
        // envelope declares: forwarded as written, comment and all.
        let contained = "<c:Ctx xmlns:c=\"urn:c\" env:mustUnderstand=\"0\"><!-- theirs -->\
                         <c:Id><![CDATA[1]]></c:Id></c:Ctx><g:Gossip xmlns:g=\"urn:g\"/>";
        let parsed = Envelope::parse(&with_blocks("", contained)).unwrap();
        let mut forward = parsed.clone();
        assert!(forward.remove_header("urn:g", "Gossip"));
        forward.push_header(Element::in_ns("g", "urn:g", "Gossip").with_text("next"));
        let wire = forward.to_xml();
        assert!(wire.contains("<!-- theirs --><c:Id><![CDATA[1]]></c:Id></c:Ctx><g:Gossip"), "{wire}");
        assert!(forward.blocks[0].tree.get().is_none(), "spliced, never built");
        assert!(parsed.header("urn:g", "Gossip").unwrap().is_empty(), "the original keeps its own");
        assert_eq!(Envelope::parse(&wire).unwrap(), forward);

        // Leaning on a prefix only the source document declared: written
        // from the tree, which declares it on the block.
        let leaning = Envelope::parse(&with_blocks(
            " xmlns:c=\"urn:c\"",
            "<c:Ctx><c:Id><![CDATA[1]]></c:Id></c:Ctx>",
        ))
        .unwrap();
        let wire = leaning.to_xml();
        assert!(wire.contains("<c:Ctx xmlns:c=\"urn:c\"><c:Id>1</c:Id></c:Ctx>"), "{wire}");
        assert_eq!(Envelope::parse(&wire).unwrap(), leaning);
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
