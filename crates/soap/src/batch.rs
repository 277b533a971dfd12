//! Wire-level envelope coalescing: the `urn:ws-gossip:batch` wrapper.
//!
//! The live transport amortises per-POST SOAP/HTTP overhead by draining
//! everything queued for one peer into a single document:
//!
//! ```xml
//! <?xml version="1.0" encoding="UTF-8"?>
//! <wsgb:Batch xmlns:wsgb="urn:ws-gossip:batch">
//!   <wsgb:Msg>…env:Envelope…</wsgb:Msg>
//!   <wsgb:Msg pre="951"><![CDATA[…the rest of an envelope…]]></wsgb:Msg>
//!   <wsgb:Msg target="/membership">…env:Envelope…</wsgb:Msg>
//! </wsgb:Batch>
//! ```
//!
//! Each `Msg` carries exactly one inner envelope, in FIFO queue order. An
//! optional `target` attribute routes a piggybacked message to a different
//! service route than the POST's own target (heartbeats riding a gossip
//! batch); absent, the message dispatches to the POST target itself.
//!
//! A `Msg` holds its envelope whole, as an element, or **front-coded**: a
//! `pre="N"` attribute and character data only, meaning "the first `N`
//! bytes of the text before this one, then this text". The *text* of a
//! `Msg` is what stands between its tags (for a coded one, what it expands
//! to). Consecutive messages to one peer repeat their `Action`, `From`,
//! coordination context and gossip header — the envelope writer puts those
//! first — so a connection says them once.
//!
//! The text before a `Msg` is that of the previous message **on the same
//! keep-alive connection**: the `Msg` before it in this document or, for
//! the first, the last message of the previous request on the connection
//! (a bare envelope's is its body past the prologue). Each end keeps that
//! text between requests — the *reference* [`write_batch_parts`] and
//! [`parse_wire_after`] take and advance; on a fresh connection it is
//! empty, and a `pre` on the first `Msg` there is refused. [`write_batch`]
//! and [`parse_wire`] are the fresh-connection forms.
//!
//! Building a batch never re-parses: the sender already holds each inner
//! envelope as serialised XML, so [`write_batch`] splices the strings
//! (declarations stripped) into a caller-owned scratch buffer. Unwrapping
//! gives every message back as the standalone document it was: a coded
//! one is rebuilt and then checked exactly as a bare POST is. The
//! transport's sender posts every message this way, one or many to a
//! batch (see `wsg_http::runtime`).

use std::fmt::Write as _;
use std::ops::Range;

use wsg_net::cov;
use wsg_xml::escape::escape_attr_into;
use wsg_xml::{Element, RawEvent, XmlReader};

use crate::envelope::{read_root, walk};
use crate::gossip::{self, GossipId};
use crate::{Envelope, SoapError, SOAP_ENV_NS};

/// Namespace of the batch wrapper vocabulary.
const BATCH_NS: &str = "urn:ws-gossip:batch";

/// SOAPAction carried by a batch POST, of one message or many.
pub const BATCH_ACTION: &str = "urn:ws-gossip:batch/Batch";

const XML_DECL: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// Fewest bytes a message must share with the one before it to travel
/// front-coded. Coding costs ` pre="951"` (10 bytes at three digits) plus
/// `<![CDATA[` and `]]>` (12): 22 bytes. Three times that keeps the form
/// for messages that share real header content — two envelopes of this
/// stack share ~150 bytes in their root start tag alone, two forwards to
/// one peer ~950 — and out of the way of strangers.
const MIN_SHARED: usize = 64;

/// ...and the smallest share of the message those bytes must be: one in
/// `MIN_SHARE`. Coding costs the sender and the receiver one more pass
/// each over what is *not* shared (for the `]]>`s to split; for the CDATA
/// section's end), so it has to leave out a fair part. A 16 KiB
/// notification shares the same ~950 header bytes a 256-byte one does —
/// 5 % of it: coded, `saturate_large` paid +5 % `cpu_ms_per_op` for −4 %
/// `wire_bytes_per_op` (EXPERIMENTS.md §E12, "a batch says it once");
/// whole, it costs what it did.
const MIN_SHARE: usize = 8;

/// Most bytes the messages of one batch may unwrap to, whole and coded
/// together: the HTTP body limit (`wsg_http::parser::MAX_BODY_BYTES`,
/// 8 MiB), so a batch can ask the receiver for no more memory than a POST
/// of whole messages could. Without it a 250 KB message followed by ten
/// thousand `pre`-only items would expand to 2.5 GB.
pub const MAX_UNWRAPPED_BYTES: usize = 8 * 1024 * 1024;

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
    /// XML), so downstream services see the same shape as a bare POST.
    pub raw: String,
    /// The message's gossip identity, read while its shape was checked.
    pub gossip: Option<GossipId<'static>>,
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

/// Serialise `items` into `out` (cleared first, allocation reused) as the
/// first batch document on a fresh connection: order is preserved,
/// declarations are stripped, and a message that starts like the one
/// before it is front-coded. Returns the bytes coding left out.
pub fn write_batch(items: &[BatchItem<'_>], out: &mut String) -> usize {
    write_coded(items.iter().map(|item| (item.target, [item.xml, "", ""])), "", out).0
}

/// [`write_batch`] mid-connection, over messages held in pieces —
/// `(target, parts)`, the inner XML being the parts in order — so a sender
/// whose queued copies of one notification share most of their bytes can
/// splice them without joining each first. The first message may be coded
/// against `reference`, the text of the last message said on the
/// connection (empty on a fresh one), which then becomes the text of the
/// last message written here.
pub fn write_batch_parts<'a>(
    items: impl Iterator<Item = (Option<&'a str>, [&'a str; 3])> + Clone,
    reference: &mut String,
    out: &mut String,
) -> usize {
    let (left_out, last) = write_coded(items, reference, out);
    if let Some(last) = last {
        reference.clear();
        last.iter().for_each(|part| reference.push_str(part));
    }
    left_out
}

/// The writer behind both: the batch of `items`, the first coded against
/// `reference`, into `out`; the bytes left out and the last message's text.
///
/// A coded message's tail is copied piece by piece into its CDATA section,
/// and every `]]>` in it — its own payload's CDATA section ending, say —
/// is split across two sections as it is copied (see [`push_in_section`]):
/// the receiver joins the runs, so whatever the tail holds, the message
/// is still coded.
fn write_coded<'a>(
    items: impl Iterator<Item = (Option<&'a str>, [&'a str; 3])> + Clone,
    reference: &str,
    out: &mut String,
) -> (usize, Option<[&'a str; 3]>) {
    out.clear();
    let body: usize =
        items.clone().map(|(_, parts)| parts.iter().map(|p| p.len()).sum::<usize>() + 24).sum();
    out.reserve(XML_DECL.len() + 64 + body);
    out.push_str(XML_DECL);
    out.push_str("<wsgb:Batch xmlns:wsgb=\"");
    out.push_str(BATCH_NS);
    out.push_str("\">");
    let mut before: Option<[&'a str; 3]> = None;
    let mut left_out = 0;
    for (target, parts) in items {
        let text = without_declaration(parts);
        out.push_str("<wsgb:Msg");
        if let Some(target) = target {
            out.push_str(" target=\"");
            escape_attr_into(out, target);
            out.push('"');
        }
        let (pre, piece, offset) = shared_start(&before.unwrap_or([reference, "", ""]), &text);
        if pre >= MIN_SHARED && pre * MIN_SHARE >= text.iter().map(|part| part.len()).sum::<usize>() {
            cov!();
            // wsg_lint: allow(E2) — fmt::Write to a String is infallible
            let _ = write!(out, " pre=\"{pre}\"><![CDATA[");
            push_in_section(out, &text[piece][offset..]);
            text[piece + 1..].iter().for_each(|part| push_in_section(out, part));
            out.push_str("]]></wsgb:Msg>");
            left_out += pre;
        } else {
            out.push('>');
            text.iter().for_each(|part| out.push_str(part));
            out.push_str("</wsgb:Msg>");
        }
        before = Some(text);
    }
    out.push_str("</wsgb:Batch>");
    (left_out, before)
}

/// Append `text` to the CDATA section open at the end of `out`, ending the
/// section before the `>` of every `]]>` and opening another for the `>`:
/// `]]>` is written `]]]]><![CDATA[>`. The section's opening `<![CDATA[`
/// ends in `[`, so the `]`s `out` ends with are the text's, and a `]]>`
/// that straddles two pieces is found from them. An empty piece (most
/// messages come in fewer than three) asks for no search.
fn push_in_section(out: &mut String, mut text: &str) {
    while !text.is_empty() {
        let close = if out.ends_with("]]") && text.starts_with('>') {
            0
        } else if out.ends_with(']') && text.starts_with("]>") {
            1
        } else if let Some(at) = text.find("]]>") {
            at + 2
        } else {
            out.push_str(text);
            return;
        };
        cov!();
        out.push_str(&text[..close]);
        out.push_str("]]><![CDATA[");
        text = &text[close..];
    }
}

/// `parts` without a leading `<?xml …?>` declaration — all of it in the
/// first part that has any bytes (see [`prologue_len`]) — and the
/// whitespace around it, so the envelope can stand inside the batch
/// document.
fn without_declaration(mut parts: [&str; 3]) -> [&str; 3] {
    let mut declaration = true;
    for part in &mut parts {
        if declaration && !part.is_empty() {
            *part = &part[prologue_len(part)..];
            declaration = false;
        }
        *part = part.trim_start();
        if !part.is_empty() {
            break;
        }
    }
    parts
}

/// How `b` starts like `a` — each the concatenation of its pieces: the
/// bytes they have in common at the start, cut back to a character
/// boundary, and where in `b` (piece, offset) the rest begins.
fn shared_start(a: &[&str; 3], b: &[&str; 3]) -> (usize, usize, usize) {
    let (mut shared, mut ai, mut ao, mut bi, mut bo) = (0, 0, 0, 0, 0);
    loop {
        while ai < a.len() && ao == a[ai].len() {
            (ai, ao) = (ai + 1, 0);
        }
        while bi < b.len() - 1 && bo == b[bi].len() {
            (bi, bo) = (bi + 1, 0);
        }
        if ai == a.len() || bo == b[bi].len() {
            break;
        }
        let (x, y) = (&a[ai].as_bytes()[ao..], &b[bi].as_bytes()[bo..]);
        let span = x.len().min(y.len());
        let (x, y) = (&x[..span], &y[..span]);
        // Whole 64-byte blocks first (slice equality is a memcmp), single
        // bytes to finish.
        let mut run: usize =
            x.chunks(64).zip(y.chunks(64)).take_while(|(p, q)| p == q).map(|(p, _)| p.len()).sum();
        run += x[run..].iter().zip(&y[run..]).take_while(|(p, q)| p == q).count();
        (shared, ao, bo) = (shared + run, ao + run, bo + run);
        if run < span {
            break;
        }
    }
    // A piece is a `str`: no character straddles two of them.
    while !b[bi].is_char_boundary(bo) {
        (shared, bo) = (shared - 1, bo - 1);
    }
    (shared, bi, bo)
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

/// The text a document has as a whole `Msg`: `xml` past its prologue and
/// the whitespace after it. What a bare POST of `xml` leaves as its
/// connection's reference.
pub fn text_of(xml: &str) -> &str {
    xml[prologue_len(xml)..].trim_start()
}

/// A wire document classified by [`parse_wire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unbundled {
    /// The document was a `wsgb:Batch`: its messages, in wire order.
    Batch(Vec<BatchedEnvelope>),
    /// Not a batch: one well-formed document, with its gossip identity or
    /// what keeps it from having the shape of a SOAP envelope.
    Single(Result<Option<GossipId<'static>>, SoapError>),
}

/// Check a wire document — the first request on a fresh connection —
/// unwrapping it when it is a batch: [`parse_wire_after`] an empty
/// reference, which it leaves alone.
///
/// # Errors
///
/// As [`parse_wire_after`].
pub fn parse_wire(wire: &str) -> Result<Unbundled, SoapError> {
    unwrap_wire(wire, "").map(|(unbundled, _)| unbundled)
}

/// Check a wire document that follows `reference` on its connection — the
/// text of the last message said there, empty on a fresh one — unwrapping
/// it when it is a batch. On success `reference` becomes the text of the
/// document's last message (of a bare envelope, [`text_of`] it).
///
/// This is the receive hot path, and it builds no tree: the document is
/// streamed once with [`XmlReader::skip_element`] doing the well-formedness
/// work, every envelope is checked for its shape only (root is
/// `env:Envelope`, has an `env:Body`), and each batched message's `raw`
/// form is the sender's exact bytes — sliced back out of `wire`, or for a
/// front-coded message put together from the text before it and its own
/// and then checked as a document of its own — in one exact-capacity
/// allocation per message.
///
/// # Errors
///
/// [`SoapError::Xml`] for malformed XML (including trailing content after
/// the root, matching [`Element::parse`]), [`SoapError::Batch`] for a
/// malformed wrapper — a `pre` that counts past, or into a character of,
/// the text before it, stands on the first message with an empty
/// `reference`, or beside an element; messages unwrapping to more than
/// [`MAX_UNWRAPPED_BYTES`] — and the envelope-shape errors for a batched
/// message that is not an envelope. Never panics, whatever the input looks
/// like.
pub fn parse_wire_after(wire: &str, reference: &mut String) -> Result<Unbundled, SoapError> {
    let (unbundled, last) = unwrap_wire(wire, reference)?;
    let text = match (&unbundled, last) {
        (_, Some(text)) => &wire[text],
        (Unbundled::Batch(messages), None) => {
            messages.last().map_or("", |coded| &coded.raw[XML_DECL.len()..])
        }
        (Unbundled::Single(_), None) => text_of(wire),
    };
    reference.clear();
    reference.push_str(text);
    Ok(unbundled)
}

/// The reader behind both: the document unwrapped against `reference`, and
/// where in `wire` its last message's text lies when it was sent whole
/// (`None` for a coded one, whose text is its `raw` past the declaration,
/// and for a bare envelope).
fn unwrap_wire(
    wire: &str,
    reference: &str,
) -> Result<(Unbundled, Option<Range<usize>>), SoapError> {
    let mut reader = XmlReader::new(wire);
    read_root(&mut reader)?;
    if reader.element_name() != (Some(BATCH_NS), "Batch") {
        cov!();
        let shape = envelope_shape(&mut reader)?;
        reader.finish()?;
        return Ok((Unbundled::Single(shape), None));
    }

    let mut out: Vec<BatchedEnvelope> = Vec::new();
    // Where in `wire` the text of the message before lies, when it was
    // sent whole; a coded one's text is its `raw` past the declaration.
    let mut sent: Option<Range<usize>> = None;
    let mut room = MAX_UNWRAPPED_BYTES;
    loop {
        match reader.next_raw()? {
            RawEvent::Start => {
                if reader.element_name() != (Some(BATCH_NS), "Msg") {
                    cov!();
                    let name = reader.element_qname();
                    return Err(SoapError::Batch(format!("batch carries a {name}")));
                }
                let target = reader.attribute(None, "target").map(|target| target.into_owned());
                let (raw, gossip) = match reader.attribute(None, "pre") {
                    None => {
                        cov!();
                        let (raw, gossip, text) = read_msg(&mut reader, wire)?;
                        room = spend(room, text.len())?;
                        sent = Some(text);
                        (raw, gossip)
                    }
                    Some(pre) => {
                        cov!();
                        let before = match (sent.take(), out.last()) {
                            (Some(text), _) => &wire[text],
                            (None, Some(coded)) => &coded.raw[XML_DECL.len()..],
                            (None, None) if !reference.is_empty() => {
                                // Coded against the request before.
                                cov!();
                                reference
                            }
                            (None, None) => {
                                cov!();
                                return Err(SoapError::Batch(
                                    "the first Msg has a pre and nothing before it".into(),
                                ));
                            }
                        };
                        read_coded(&mut reader, &pre, before, &mut room)?
                    }
                };
                out.push(BatchedEnvelope { target, raw, gossip });
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
    Ok((Unbundled::Batch(out), sent))
}

/// `room` less the `bytes` one more message unwraps to.
fn spend(room: usize, bytes: usize) -> Result<usize, SoapError> {
    room.checked_sub(bytes).ok_or_else(|| {
        cov!();
        SoapError::Batch(format!("batch unwraps to more than {MAX_UNWRAPPED_BYTES} bytes"))
    })
}

/// Go through the element just started — reading its gossip identity off
/// the header, skipping everything else — and report that identity, or
/// what keeps the element from having the shape of an envelope.
fn envelope_shape(
    reader: &mut XmlReader<'_>,
) -> Result<Result<Option<GossipId<'static>>, SoapError>, SoapError> {
    let mut id = None;
    let shape = walk(
        reader,
        |reader| {
            id = gossip::read_header(reader)?.map(GossipId::into_owned);
            Ok(())
        },
        XmlReader::skip_element,
    )?;
    Ok(shape.is_envelope().and_then(|()| shape.has_body()).map(|()| id))
}

/// Read one whole `wsgb:Msg`'s content — exactly one inner element, shaped
/// like an envelope — and return its standalone `raw` form, its gossip
/// identity, and where in `wire` the message's text (all that stands
/// between its tags) lies.
fn read_msg(
    reader: &mut XmlReader<'_>,
    wire: &str,
) -> Result<(String, Option<GossipId<'static>>, Range<usize>), SoapError> {
    let mut inner: Option<(String, Option<GossipId<'static>>)> = None;
    // Bindings declared at or below this scope depth (the batch wrapper's
    // xmlns:wsgb, or anything else on the outer elements) are invisible to
    // a message slice replayed standalone.
    let outer_scope = reader.scope_depth();
    let text_from = reader.position();
    loop {
        // After the previous event is consumed the cursor sits exactly
        // on the next construct, so for a tag this is the byte offset of
        // its `<`.
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
                let gossip = envelope_shape(reader)??;
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
                inner = Some((raw, gossip));
            }
            // `</wsgb:Msg>`, with at least the element before it.
            RawEvent::End => {
                let (raw, gossip) = inner.ok_or_else(|| {
                    cov!();
                    SoapError::Batch("Msg wraps 0 elements (want exactly 1)".into())
                })?;
                return Ok((raw, gossip, text_from..start));
            }
            _ => {} // text/comments alongside the envelope are ignored
        }
    }
}

/// Read one front-coded `wsgb:Msg`'s content — character data only — and
/// return its standalone `raw` form: the declaration, the first `pre`
/// bytes of `before`, the message's own text — taken out of `room` before
/// anything is allocated, and checked as a bare POST's body is — with its
/// gossip identity.
fn read_coded(
    reader: &mut XmlReader<'_>,
    pre: &str,
    before: &str,
    room: &mut usize,
) -> Result<(String, Option<GossipId<'static>>), SoapError> {
    // `is_char_boundary` is false past the end, too.
    let shared = pre.parse().ok().filter(|&shared| before.is_char_boundary(shared));
    let Some(shared) = shared else {
        cov!();
        return Err(SoapError::Batch(format!(
            "Msg pre=\"{pre}\" is no character boundary of the {} bytes before it",
            before.len()
        )));
    };
    let mut tail = std::borrow::Cow::Borrowed("");
    loop {
        match reader.next_raw()? {
            RawEvent::Text(run) if tail.is_empty() => tail = run,
            // Several runs: a `]]>` the sender split across two CDATA
            // sections, or another writer's spelling (escaped text,
            // comments between runs).
            RawEvent::Text(run) => {
                cov!();
                tail.to_mut().push_str(&run);
            }
            RawEvent::Start => {
                cov!();
                return Err(SoapError::Batch("a Msg with a pre wraps an element".into()));
            }
            RawEvent::End => break,
            _ => {}
        }
    }
    *room = spend(*room, shared + tail.len())?;
    let mut raw = String::with_capacity(XML_DECL.len() + shared + tail.len());
    raw.push_str(XML_DECL);
    raw.push_str(&before[..shared]);
    raw.push_str(&tail);

    let mut rebuilt = XmlReader::new(&raw);
    read_root(&mut rebuilt)?;
    let gossip = envelope_shape(&mut rebuilt)??;
    rebuilt.finish()?;
    Ok((raw, gossip))
}

/// Whether a parsed document root is a batch wrapper.
pub fn is_batch(root: &Element) -> bool {
    root.name().matches(Some(BATCH_NS), "Batch")
}

/// Unwrap a batch document that follows `reference` on its connection by
/// building its tree and walking it, messages in wire order — the
/// reference [`parse_wire_after`] is tested and fuzzed against, advancing
/// `reference` as it does. (It takes the text, not the tree: a `pre`
/// counts bytes of the text, which no tree keeps.)
///
/// # Errors
///
/// [`SoapError::Xml`] when `wire` is no XML document;
/// [`SoapError::Batch`] when the root is not a `wsgb:Batch`, a child is
/// not a `wsgb:Msg`, a whole `Msg` does not carry exactly one child
/// element, a coded one carries any or has a `pre` that fits nothing
/// before it, the batch is empty or unwraps to more than
/// [`MAX_UNWRAPPED_BYTES`]; [`SoapError::NotAnEnvelope`] /
/// [`SoapError::MissingPart`] for a message without the envelope shape;
/// [`SoapError::Xml`] for a coded message that unwraps to no document.
/// Never panics, whatever the input looks like.
pub fn unbundle(wire: &str, reference: &mut String) -> Result<Vec<BatchedEnvelope>, SoapError> {
    let root = &Element::parse(wire)?;
    if !is_batch(root) {
        cov!();
        return Err(SoapError::Batch(format!("root element is {}", root.name())));
    }
    let children = root.children();
    if children.is_empty() {
        cov!();
        return Err(SoapError::Batch("batch carries no messages".into()));
    }
    let texts = child_texts(wire)?;
    let mut out = Vec::with_capacity(children.len());
    let mut before = (!reference.is_empty()).then(|| reference.clone());
    let mut room = MAX_UNWRAPPED_BYTES;
    for (child, sent) in children.into_iter().zip(texts) {
        if !child.name().matches(Some(BATCH_NS), "Msg") {
            cov!();
            return Err(SoapError::Batch(format!("batch carries a {}", child.name())));
        }
        let wrapped = child.children();
        // A whole message as the tree has it; a coded one as it was sent.
        let (text, inner, raw) = match (child.attr("pre"), wrapped.as_slice()) {
            (None, [only]) => {
                let raw = format!("{XML_DECL}{}", only.to_xml_string());
                (wire[sent].to_string(), (*only).clone(), raw)
            }
            (None, _) => {
                cov!();
                return Err(SoapError::Batch(format!(
                    "Msg wraps {} elements (want exactly 1)",
                    wrapped.len()
                )));
            }
            (Some(pre), []) => {
                let shared = pre.parse::<usize>().ok().and_then(|shared| before.as_ref()?.get(..shared));
                let Some(shared) = shared else {
                    cov!();
                    return Err(SoapError::Batch(format!("Msg pre=\"{pre}\" fits nothing before it")));
                };
                let text = format!("{shared}{}", child.text());
                let raw = format!("{XML_DECL}{text}");
                (text, Element::parse(&raw)?, raw)
            }
            (Some(_), _) => {
                cov!();
                return Err(SoapError::Batch("a Msg with a pre wraps an element".into()));
            }
        };
        room = spend(room, text.len())?;
        cov!();
        if !inner.name().matches(Some(SOAP_ENV_NS), "Envelope") {
            return Err(SoapError::NotAnEnvelope(format!("root element is {}", inner.name())));
        }
        if inner.child_ns(SOAP_ENV_NS, "Body").is_none() {
            return Err(SoapError::MissingPart("Body"));
        }
        let gossip = gossip::of_tree(&inner);
        out.push(BatchedEnvelope { target: child.attr("target").map(str::to_string), raw, gossip });
        before = Some(text);
    }
    *reference = before.unwrap_or_default();
    Ok(out)
}

/// Where in `wire` the text of each child of the document element lies:
/// what stands between the child's tags.
fn child_texts(wire: &str) -> Result<Vec<Range<usize>>, SoapError> {
    let mut reader = XmlReader::new(wire);
    read_root(&mut reader)?;
    let mut texts = Vec::new();
    loop {
        match reader.next_raw()? {
            RawEvent::Start => {
                let from = reader.position();
                reader.skip_element()?;
                // An end tag holds one `<`, its first byte; `<a/>` has no
                // end tag, and the `<` found is its own, before `from`.
                let to = wire[..reader.position()].rfind('<').map_or(from, |to| to.max(from));
                texts.push(from..to);
            }
            RawEvent::End => return Ok(texts),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::{EndpointReference, MessageHeaders};

    fn sample(n: usize) -> Envelope {
        Envelope::request(
            MessageHeaders::request(format!("http://dest/{n}"), format!("urn:app:Op{n}"))
                .with_message_id(format!("urn:uuid:{n}")),
            Element::text_node("tick", format!("payload-{n}")),
        )
    }

    /// The `n`-th notification one node forwards to one peer: everything
    /// but the ids and the payload repeats.
    fn forward(n: usize) -> String {
        let context = Element::in_ns("wscoor", "urn:wscoor", "CoordinationContext")
            .with_child(Element::text_node("Identifier", "urn:ctx:7"))
            .with_child(Element::text_node("Expires", "86400000"));
        Envelope::request(
            MessageHeaders::request("http://127.0.0.1:4100/gossip", "urn:ws-gossip:2008:Notify")
                .with_from(EndpointReference::new("http://127.0.0.1:4200/gossip"))
                .with_message_id(format!("urn:uuid:{n:032x}")),
            Element::text_node("tick", format!("ACME {n} é")),
        )
        .with_header(context)
        .with_header(Element::text_node("Seq", n.to_string()))
        .to_xml()
    }

    fn batch_of(xmls: &[String]) -> (String, usize) {
        let items: Vec<BatchItem<'_>> =
            xmls.iter().map(|xml| BatchItem { target: None, xml }).collect();
        let mut wire = String::new();
        let left_out = write_batch(&items, &mut wire);
        (wire, left_out)
    }

    fn streamed(wire: &str) -> Vec<BatchedEnvelope> {
        match parse_wire(wire).unwrap() {
            Unbundled::Batch(messages) => messages,
            other => panic!("batch wire classified as {other:?}"),
        }
    }

    /// The tree walk on a fresh connection.
    fn fresh(wire: &str) -> Result<Vec<BatchedEnvelope>, SoapError> {
        unbundle(wire, &mut String::new())
    }

    #[test]
    fn the_first_message_of_a_request_is_coded_against_the_request_before() {
        let xmls: Vec<String> = (0..4).map(forward).collect();
        let (mut sent, mut received, mut walked) = (String::new(), String::new(), String::new());
        let post = |xmls: &[String], sent: &mut String| {
            let mut wire = String::new();
            let left_out = write_batch_parts(
                xmls.iter().map(|xml| (None, [xml.as_str(), "", ""])),
                sent,
                &mut wire,
            );
            (wire, left_out)
        };
        // One message per request: the first goes whole, every later one
        // as what it adds to the one the connection carried before it.
        for (n, xml) in xmls.iter().enumerate() {
            let (wire, left_out) = post(std::slice::from_ref(xml), &mut sent);
            assert_eq!(wire.contains(" pre=\""), n > 0, "{wire}");
            assert_eq!(left_out > xml.len() / 2, n > 0, "{left_out} of {wire}");
            let Unbundled::Batch(messages) = parse_wire_after(&wire, &mut received).unwrap() else {
                panic!("{wire}");
            };
            assert_eq!(messages[0].raw, *xml);
            // (The tree walk gives a whole message back re-serialised.)
            let walk = unbundle(&wire, &mut walked).unwrap();
            assert_eq!(walk[0].envelope(), messages[0].envelope());
            assert_eq!(sent, xml[XML_DECL.len()..]);
            assert_eq!((&received, &walked), (&sent, &sent));
            // Without the request before, the same document is refused.
            if n > 0 {
                assert!(matches!(parse_wire(&wire), Err(SoapError::Batch(_))), "{wire}");
                assert!(matches!(fresh(&wire), Err(SoapError::Batch(_))), "{wire}");
            }
        }
        // A bare envelope leaves its text past the prologue as the
        // reference, whitespace after the declaration trimmed.
        let bare = format!("{XML_DECL}\n {}", &xmls[0][XML_DECL.len()..]);
        assert_eq!(parse_wire_after(&bare, &mut received).unwrap(), Unbundled::Single(Ok(None)));
        assert_eq!(received, text_of(&bare));
        assert_eq!(received, xmls[0][XML_DECL.len()..]);
        let (wire, left_out) = post(&xmls[1..3], &mut received.clone());
        assert!(left_out > 0 && wire.matches(" pre=\"").count() == 2, "{wire}");
        let Unbundled::Batch(messages) = parse_wire_after(&wire, &mut received).unwrap() else {
            panic!("{wire}");
        };
        assert_eq!([messages[0].raw.as_str(), &messages[1].raw], [&xmls[1], &xmls[2]]);
        assert_eq!(received, xmls[2][XML_DECL.len()..]);
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

        assert!(is_batch(&Element::parse(&wire).unwrap()));
        let unpacked = fresh(&wire).unwrap();
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
        let strip_declaration = |xml| without_declaration([xml, "", ""]).concat();
        assert_eq!(strip_declaration("<a/>"), "<a/>");
        assert_eq!(
            strip_declaration("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>"),
            "<a/>"
        );
        assert_eq!(strip_declaration("  <?xml version=\"1.0\"?>\n  <a/>"), "<a/>");
        // A truncated declaration is left alone (the parse will reject it).
        assert_eq!(strip_declaration("<?xml version"), "<?xml version");
        // In pieces: the declaration in the first that has bytes, the
        // whitespace after it wherever it falls.
        assert_eq!(without_declaration(["", " <?xml version=\"1.0\"?> ", "\n<a/> "]).concat(), "<a/> ");
        assert_eq!(without_declaration(["<a>", " <?xml?>", ""]).concat(), "<a> <?xml?>");
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

        let via_tree = fresh(&wire).unwrap();
        let streamed = streamed(&wire);
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
    fn forwards_to_one_peer_are_said_once_and_come_back_byte_for_byte() {
        let xmls: Vec<String> = (0..5).map(forward).collect();
        let (wire, left_out) = batch_of(&xmls);
        // The first goes whole, the rest as what they add to it.
        assert_eq!(wire.matches("<wsgb:Msg>").count(), 1, "{wire}");
        assert_eq!(wire.matches("<wsgb:Msg pre=\"").count(), 4, "{wire}");
        assert_eq!(wire.matches("<wscoor:CoordinationContext").count(), 1, "{wire}");
        let whole: usize = xmls.iter().map(|xml| xml.len() - XML_DECL.len() + 21).sum();
        assert!(left_out > whole / 2, "{left_out} bytes left out of {whole}");
        // Per coded message: ` pre="NNN"` and the CDATA brackets.
        assert_eq!(wire.len(), XML_DECL.len() + 58 + whole - left_out + 4 * 22);
        for (message, xml) in streamed(&wire).iter().zip(&xmls) {
            assert_eq!(&message.raw, xml);
        }
        // (The reference gives a whole message back re-serialised.)
        for (message, xml) in fresh(&wire).unwrap().iter().zip(&xmls).skip(1) {
            assert_eq!(&message.raw, xml, "the reference rebuilds the same bytes");
        }

        // What is shared has to be an eighth of the message: the same
        // ~400 header bytes before a 16 KiB payload go whole, before 2 KiB
        // coded.
        let with_payload = |bytes: usize| {
            let payload = Element::text_node("tick", "é".repeat(bytes / 2));
            let grown = Envelope::parse(&xmls[1]).unwrap();
            let mut headers = Envelope::request(grown.addressing().clone(), payload);
            grown.headers().into_iter().for_each(|block| headers.push_header(block.clone()));
            headers.to_xml()
        };
        for (bytes, coded) in [(16 * 1024, 0), (2 * 1024, 1)] {
            let pair = [xmls[0].clone(), with_payload(bytes)];
            let (wire, left_out) = batch_of(&pair);
            assert_eq!(wire.matches(" pre=\"").count(), coded, "{bytes}-byte payload");
            assert_eq!(left_out > 0, coded > 0);
            assert_eq!(streamed(&wire)[1].raw, pair[1]);
        }

        // A lone message shares with nobody, a stranger with no one
        // either; identical neighbours share everything.
        assert_eq!(batch_of(&xmls[..1]).1, 0);
        let stranger = format!("<e:Envelope xmlns:e=\"{SOAP_ENV_NS}\"><e:Body/></e:Envelope>");
        let (wire, left_out) = batch_of(&[stranger, xmls[0].clone(), xmls[0].clone()]);
        assert_eq!(left_out, xmls[0].len() - XML_DECL.len());
        assert!(wire.ends_with("\"><![CDATA[]]></wsgb:Msg></wsgb:Batch>"), "{wire}");
        let back = streamed(&wire);
        assert_eq!(back[1].raw, back[2].raw);
        assert_eq!(back[2].raw, xmls[0]);
    }

    #[test]
    fn the_shared_start_is_cut_on_a_character_and_found_across_pieces() {
        let long = "x".repeat(70);
        // `é` and `è` share their first byte: the cut falls before it.
        let (a, b) = (format!("{long}é1"), format!("{long}è2"));
        assert_eq!(shared_start(&[&a, "", ""], &[&b, "", ""]), (70, 0, 70));
        assert_eq!(shared_start(&[&a, "", ""], &["", &b[..30], &b[30..]]), (70, 2, 40));
        assert_eq!(shared_start(&[&a[..10], &a[10..72], &a[72..]], &[&b, "", ""]), (70, 0, 70));
        assert_eq!(shared_start(&[&a, "", ""], &[&a[..5], "", &a[5..]]), (a.len(), 2, a.len() - 5));
        assert_eq!(shared_start(&[&a, "", ""], &[&a[..5], "", ""]), (5, 2, 0));
        assert_eq!(shared_start(&["", "", ""], &[&a, "", ""]), (0, 0, 0));
        assert_eq!(shared_start(&[&a, "", ""], &["", "", ""]), (0, 2, 0));

        // Messages in three pieces, as a sender's queue hands them over,
        // batch to the bytes whole messages batch to.
        let xmls: Vec<String> = (0..4).map(forward).collect();
        let pieces = xmls.iter().enumerate().map(|(i, xml)| {
            let (cut, end) = (xml.len() * i / 4, xml.len() - 9 * i);
            (None, [&xml[..cut], &xml[cut..end], &xml[end..]])
        });
        let mut in_pieces = String::new();
        let left_out = write_batch_parts(pieces, &mut String::new(), &mut in_pieces);
        assert_eq!((in_pieces, left_out), batch_of(&xmls));
    }

    #[test]
    fn a_tail_that_would_end_the_cdata_section_is_split_across_two_sections() {
        const SPLIT: &str = "]]]]><![CDATA[>";
        let head = format!("<env:Envelope xmlns:env=\"{SOAP_ENV_NS}\"><env:Body><!--{}-->", "x".repeat(80));
        let plain = format!("{head}<a>1</a></env:Body></env:Envelope>");
        let foreign = format!("{head}<a><![CDATA[2]]></a><b><![CDATA[]]]]><![CDATA[>]]></b></env:Body></env:Envelope>");
        let split = format!("{head}<a>3]]</a></env:Body></env:Envelope>");
        let xmls = [plain.clone(), foreign.clone(), plain.clone(), split.clone()];
        let (wire, left_out) = batch_of(&xmls);
        // Every message after the first is coded, the foreign one too.
        assert_eq!(wire.matches(" pre=\"").count(), 3, "{wire}");
        assert_eq!(left_out, 3 * (head.len() + 3));
        // Its tail carries the split once per `]]>` it holds.
        let coded = |text: &str| {
            let tail = &text[head.len() + 3..];
            assert_eq!(tail.matches("]]>").count(), 3);
            format!("<wsgb:Msg pre=\"{}\"><![CDATA[{}]]></wsgb:Msg>", head.len() + 3, tail.replace("]]>", SPLIT))
        };
        assert!(wire.contains(&coded(&foreign)), "{wire}");
        assert_eq!(wire.matches(SPLIT).count(), 3, "{wire}");
        // `]]` alone is text like any other.
        assert!(wire.ends_with("<![CDATA[3]]</a></env:Body></env:Envelope>]]></wsgb:Msg></wsgb:Batch>"));
        for (message, xml) in streamed(&wire).iter().zip(&xmls) {
            assert_eq!(message.raw, format!("{XML_DECL}{xml}"));
        }
        for (message, xml) in fresh(&wire).unwrap().iter().zip(&xmls).skip(1) {
            assert_eq!(message.raw, format!("{XML_DECL}{xml}"));
        }
        // Cut at every byte of every `]]>` into two or three pieces, the
        // batch is the one written whole.
        let mut cuts: Vec<usize> = foreign.match_indices("]]>").flat_map(|(at, _)| at..=at + 3).collect();
        cuts.push(foreign.len());
        for &a in &cuts {
            for &b in cuts.iter().filter(|&&b| b >= a) {
                let pieces = [
                    (None, [plain.as_str(), "", ""]),
                    (None, [&foreign[..a], &foreign[a..b], &foreign[b..]]),
                    (None, [plain.as_str(), "", ""]),
                    (None, [&split[..head.len() + 8], &split[head.len() + 8..], ""]),
                ];
                let mut in_pieces = String::new();
                let left = write_batch_parts(pieces.into_iter(), &mut String::new(), &mut in_pieces);
                assert_eq!((left, &in_pieces), (left_out, &wire), "cut at {a} and {b}");
            }
        }
    }

    #[test]
    fn coded_messages_written_by_others_unwrap_the_same() {
        let first = forward(1);
        let first = &first[XML_DECL.len()..];
        let cut = first.find("<wsa:To>").unwrap();
        let rest = &first[cut..];
        // Escaped text instead of a CDATA section, several runs, a
        // comment, the message before with whitespace around it.
        let escaped = rest.replace('&', "&amp;").replace('<', "&lt;");
        let (half, other) = rest.split_at(rest.len() / 2);
        let wire = format!(
            "<b:Batch xmlns:b=\"{BATCH_NS}\"><b:Msg>\n{first}\n</b:Msg>\
             <b:Msg pre=\"{0}\" target=\"/x\">{escaped}</b:Msg>\
             <b:Msg pre=\"{0}\"><![CDATA[{half}]]><!-- and --><![CDATA[{other}]]></b:Msg>\
             <b:Msg pre='{1}'/></b:Batch>",
            cut + 1,
            first.len() + 1
        );
        let messages = streamed(&wire);
        assert_eq!(messages.len(), 4);
        // `pre` counts the text between the tags, the newline included.
        for message in &messages[1..] {
            assert_eq!(message.raw, format!("{XML_DECL}\n{first}"));
        }
        assert_eq!(messages[0].raw, format!("{XML_DECL}{first}"));
        assert_eq!(messages[1].target.as_deref(), Some("/x"));
        let reference = fresh(&wire).unwrap();
        assert_eq!(messages[1..], reference[1..]);
        assert_eq!(messages[0].envelope(), reference[0].envelope());
    }

    #[test]
    fn hostile_wrappers_are_errors_never_panics() {
        let envelope = forward(1);
        let envelope = &envelope[XML_DECL.len()..];
        let body = envelope.find("<env:Body>").unwrap();
        let batch = |msgs: &str| format!("<wsgb:Batch xmlns:wsgb=\"{BATCH_NS}\">{msgs}</wsgb:Batch>");
        let after = |msg: &str| batch(&format!("<wsgb:Msg>{envelope}é</wsgb:Msg>{msg}"));
        let len = envelope.len();
        type Class = fn(&SoapError) -> bool;
        let wrapper: Class = |e| matches!(e, SoapError::Batch(_));
        let xml: Class = |e| matches!(e, SoapError::Xml(_));
        let table: Vec<(&str, String, Class)> = vec![
            ("pre on the first Msg", batch("<wsgb:Msg pre=\"0\"><![CDATA[<a/>]]></wsgb:Msg>"), wrapper),
            ("pre past the text before", after(&format!("<wsgb:Msg pre=\"{}\"/>", len + 3)), wrapper),
            ("pre inside a character", after(&format!("<wsgb:Msg pre=\"{}\"/>", len + 1)), wrapper),
            ("pre not a number", after("<wsgb:Msg pre=\"12x\"/>"), wrapper),
            ("pre negative", after("<wsgb:Msg pre=\"-1\"/>"), wrapper),
            ("pre empty", after("<wsgb:Msg pre=\"\"/>"), wrapper),
            ("pre beyond usize", after("<wsgb:Msg pre=\"99999999999999999999999\"/>"), wrapper),
            ("an element in a coded Msg", after(&format!("<wsgb:Msg pre=\"0\">{envelope}</wsgb:Msg>")), wrapper),
            ("an element beside the tail", after("<wsgb:Msg pre=\"5\">x<a/></wsgb:Msg>"), wrapper),
            ("rebuilt text is no XML", after("<wsgb:Msg pre=\"30\"/>"), xml),
            ("rebuilt text with content after its root", after(&format!("<wsgb:Msg pre=\"{len}\">&lt;a/></wsgb:Msg>")), xml),
            ("rebuilt text with a second declaration", after(&format!("<wsgb:Msg pre=\"0\">&lt;?xml version=\"1.0\"?>{}</wsgb:Msg>", envelope.replace('<', "&lt;"))), xml),
            ("rebuilt text is no envelope", after("<wsgb:Msg pre=\"0\">&lt;a/></wsgb:Msg>"), |e| matches!(e, SoapError::NotAnEnvelope(_))),
            (
                "rebuilt text has no env:Body",
                after(&format!("<wsgb:Msg pre=\"{body}\">&lt;/env:Envelope></wsgb:Msg>")),
                |e| matches!(e, SoapError::MissingPart("Body")),
            ),
            ("a coded Msg leaning on the wrapper's prefix", after("<wsgb:Msg pre=\"0\">&lt;wsgb:a/></wsgb:Msg>"), xml),
        ];
        for (what, wire, class) in table {
            let error = parse_wire(&wire).expect_err(what);
            assert!(class(&error), "{what}: {error}");
            let reference = fresh(&wire).expect_err(what);
            assert!(class(&reference), "{what}, by the tree walk: {reference}");
        }
        // The same text before it, `pre` on the boundary: accepted.
        let fine = after(&format!("<wsgb:Msg pre=\"{len}\"/>"));
        assert_eq!(streamed(&fine)[1].raw, format!("{XML_DECL}{envelope}"));
    }

    #[test]
    fn a_batch_cannot_unwrap_to_more_than_a_body_may_hold() {
        // 250 KB once, then "the same again" ten thousand times: 2.5 GB
        // asked for in 400 KB.
        let big = format!(
            "<env:Envelope xmlns:env=\"{SOAP_ENV_NS}\"><env:Body><a>{}</a></env:Body></env:Envelope>",
            "x".repeat(250_000)
        );
        let bomb = |copies: usize| {
            let again = format!("<wsgb:Msg pre=\"{}\"/>", big.len()).repeat(copies);
            format!("<wsgb:Batch xmlns:wsgb=\"{BATCH_NS}\"><wsgb:Msg>{big}</wsgb:Msg>{again}</wsgb:Batch>")
        };
        let fits = MAX_UNWRAPPED_BYTES / big.len() - 1;
        assert_eq!(streamed(&bomb(fits)).len(), fits + 1);
        for copies in [fits + 1, 10_000] {
            let wire = bomb(copies);
            assert!(wire.len() < 500_000);
            assert!(matches!(parse_wire(&wire), Err(SoapError::Batch(_))), "{copies} copies");
            assert!(matches!(fresh(&wire), Err(SoapError::Batch(_))), "{copies} copies");
        }
    }

    #[test]
    fn parse_wire_hands_back_non_batch_documents() {
        let xml = sample(3).to_xml();
        match parse_wire(&xml).unwrap() {
            Unbundled::Single(shape) => assert_eq!(shape, Ok(None)),
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
        for bad in [
            "<x/>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"/>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><other/></wsgb:Batch>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg/></wsgb:Batch>",
        ] {
            assert!(matches!(fresh(bad), Err(SoapError::Batch(_))), "{bad}");
        }
        let not_envelope =
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg><x/></wsgb:Msg></wsgb:Batch>";
        assert!(matches!(fresh(not_envelope), Err(SoapError::NotAnEnvelope(_))));
        assert!(matches!(fresh("<unclosed"), Err(SoapError::Xml(_))));
    }
}
