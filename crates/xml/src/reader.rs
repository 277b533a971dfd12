//! A namespace-aware pull parser.
//!
//! Two layers share one grammar. The **token layer** ([`XmlReader`]'s
//! private `next_token`) recognises every construct as slices of the
//! input and enforces all well-formedness and namespace rules without
//! building a `String` or a [`QName`]. On top of it sit two consumers:
//! [`XmlReader::next_raw`] hands the events over as slices of the input
//! (a [`RawEvent`]; the name and attributes of a start tag are asked of
//! the reader), and [`XmlReader::skip_element`] discards them — same
//! accept/reject decisions, same end offset, and no allocation. The tree
//! builder ([`Element::parse`](crate::Element::parse)) drives `next_raw`.
//! Declarations, comments and processing instructions are checked and
//! skipped: the reader reports that one stood there, not what it said.
//!
//! ## Bytes, not characters
//!
//! Every delimiter of the grammar is ASCII, so the token layer reads
//! bytes: a byte test never splits a UTF-8 sequence. A name is read and
//! checked as a QName in one loop over a class table. Character data is
//! scanned once, a block at a time, for the `<` that ends it, for `]]>`,
//! for characters XML 1.0's `Char` leaves out and for references, the
//! five predefined entities being checked as they pass (a consumer that
//! resolves them checks them itself, so for `next_raw` the scan only
//! notes that there are some); an attribute value is
//! scanned once for its quote, `<`, references, the characters
//! normalisation rewrites and those `Char` leaves out, a CDATA section
//! for its `]]>` and those. An end tag is compared with
//! the open element's name before anything is searched, and each prefix of
//! a start tag is resolved once, the element's binding kept for
//! [`XmlReader::element_name`]. What falls outside a fast path — a name
//! with a non-ASCII character, a character reference, an end tag other
//! than `</name S? >` — takes the `char`-level code the reader had before.
//!
//! Whitespace is XML's `S` (`#x20 | #x9 | #xD | #xA`) everywhere the
//! grammar skips it: between attributes, around `=`, before an end tag's
//! `>`, in the prolog and epilog, after a processing instruction's target
//! and inside the declaration. Other Unicode whitespace (`U+3000`,
//! `U+00A0`, `U+0085`, a vertical tab) separates nothing: in a tag it is a
//! character no name may hold, outside the root element it is character
//! data, and a processing-instruction target holding it is rejected.
//!
//! ## The reference
//!
//! Test builds keep the `char`-level token layer this one replaced
//! (`reader::reference`). The differential test beside it
//! (`reader::differential`) drives both with `next_raw`, and through
//! `skip_element` (where the tokenizer checks references itself), over
//! 10⁴ generated documents and over truncations and byte flips of every
//! committed `xml`, `envelope` and `batch` fuzz seed: after every event
//! both report the same event, element name, attributes, bindings and
//! position, and every rejection is the same error kind at the same
//! offset. Inputs holding whitespace outside `S` are the one class left
//! out — the one place the two readers are meant to differ.

use std::borrow::Cow;

use wsg_net::cov;

use crate::error::{XmlError, XmlErrorKind};
use crate::escape::{
    cdata_end, check_refs, find_by, find_byte, find_not_char, is_name_char, is_name_start, may_start_not_char,
    not_char_at, predefined, unescape, validate_qname,
};
use crate::name::QName;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// Bytes the readers on this thread have tokenized, in debug builds: what
/// a test counts a consumer's passes over a document with.
#[cfg(debug_assertions)]
pub fn tokenized_bytes() -> usize {
    TOKENIZED.with(std::cell::Cell::get)
}

#[cfg(debug_assertions)]
thread_local! {
    static TOKENIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Maximum element nesting depth accepted by the reader.
pub const MAX_DEPTH: usize = 512;

/// XML's whitespace, `S`: the only characters the grammar skips.
const SPACE: [char; 4] = [' ', '\t', '\r', '\n'];

fn is_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t' | b'\r' | b'\n')
}

// How `read_qname` sees a byte: the ASCII half of `is_name_char` and
// `is_name_start` as two bits. A non-ASCII byte has neither; it hands the
// name over to the `char`-level code.
const NAME_CHAR: u8 = 1;
const NAME_START: u8 = 2;

static NAME_CLASS: [u8; 256] = {
    let mut class = [0; 256];
    let mut byte = 0;
    while byte < 256 {
        class[byte] = match byte as u8 {
            b'A'..=b'Z' | b'a'..=b'z' | b'_' | b':' => NAME_START | NAME_CHAR,
            b'0'..=b'9' | b'-' | b'.' => NAME_CHAR,
            _ => 0,
        };
        byte += 1;
    }
    class
};

fn name_class(byte: u8) -> u8 {
    NAME_CLASS[usize::from(byte)]
}

// Who checks the references of a text run: the consumer, which resolves
// them (`unescape` checks as it goes), or the tokenizer.
const RESOLVING: bool = true;
const CHECKING: bool = false;

/// One lexical construct, as slices of the input.
enum Token<'a> {
    /// A declaration, comment or processing instruction: checked, and
    /// nothing of it kept.
    Markup,
    /// Character data from byte offset `at`, still escaped; `refs` says
    /// whether it holds references. Unless the consumer is resolving them,
    /// the tokenizer has checked them. A CDATA section is a run without
    /// references.
    Text { raw: &'a str, at: usize, refs: bool },
    /// A start tag. The element is open (the last of `XmlReader::open`),
    /// its scope pushed and its attributes (validated) sit in
    /// `XmlReader::attrs`.
    Start,
    /// A matched end tag (or the synthetic one after `<a/>`). The element
    /// stays open until the consumer calls `close_element`, so its own
    /// namespace declarations can still resolve its name.
    End,
    Eof,
}

/// One event as slices of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawEvent<'a> {
    /// A start tag. The element is now the innermost open one: its name is
    /// [`XmlReader::element_name`], its attributes [`XmlReader::attribute`].
    /// `<a/>` is followed by its `End`, so nesting is uniform.
    Start,
    /// An end tag; the element is closed.
    End,
    /// Character data with its references resolved, or a CDATA section
    /// verbatim — what a tree's text node would hold. Borrowed unless a
    /// reference had to be resolved.
    Text(Cow<'a, str>),
    /// A declaration, comment or processing instruction.
    Markup,
    /// End of the document.
    Eof,
}

/// An open element: its lexical name and, when the index fits, the scope
/// entry its prefix — or, unprefixed, the default namespace — resolved to
/// when its start tag was read (`None`: resolve it again). The entry
/// outlives the element: entries only leave the scope when an element at
/// their depth closes.
#[derive(Debug)]
struct Open<'a> {
    name: &'a str,
    ns: Option<u32>,
}

/// An attribute as written: lexical name and still-escaped value.
#[derive(Debug)]
struct RawAttr<'a> {
    name: &'a str,
    raw: &'a str,
    // `raw` is already the value: no reference, nothing to normalise.
    plain: bool,
}

/// In-scope namespace bindings over borrowed input: `(depth, prefix,
/// uri)`, innermost last; the empty prefix is the default namespace.
#[derive(Debug)]
struct Bindings<'a> {
    entries: Vec<(usize, &'a str, Cow<'a, str>)>,
    depth: usize,
}

impl<'a> Bindings<'a> {
    fn pop_scope(&mut self) {
        while matches!(self.entries.last(), Some((d, _, _)) if *d == self.depth) {
            self.entries.pop();
        }
        self.depth = self.depth.saturating_sub(1);
    }

    /// The entry of the winning binding for `prefix`.
    fn resolve(&self, prefix: &str) -> Option<usize> {
        self.entries.iter().rposition(|(_, p, _)| *p == prefix)
    }

    fn uri(&self, entry: Option<usize>) -> Option<&str> {
        entry.and_then(|i| self.entries.get(i)).map(|(_, _, uri)| uri.as_ref())
    }
}

/// The prefix an `xmlns` / `xmlns:p` attribute declares (empty for the
/// default namespace); `None` for every other attribute.
fn declared_prefix(attr_name: &str) -> Option<&str> {
    match attr_name.strip_prefix("xmlns")? {
        "" => Some(""),
        rest => rest.strip_prefix(':'),
    }
}

/// An attribute's value: references resolved, then attribute-value
/// normalisation (whitespace characters become spaces). Almost no value
/// needs either, so the input is borrowed unless one does.
fn attr_value<'a>(input: &str, attr: &RawAttr<'a>) -> Result<Cow<'a, str>, XmlError> {
    if attr.plain {
        return Ok(Cow::Borrowed(attr.raw));
    }
    // Error positions count from the start of the input `raw` is cut from.
    let at = attr.raw.as_ptr() as usize - input.as_ptr() as usize;
    let value = unescape(attr.raw, at)?;
    if !value.contains(['\t', '\n', '\r']) {
        return Ok(value);
    }
    Ok(Cow::Owned(
        value
            .chars()
            .map(|c| if matches!(c, '\t' | '\n' | '\r') { ' ' } else { c })
            .collect(),
    ))
}

/// [`attr_value`] of an attribute the tokenizer has accepted.
fn checked_value<'a>(input: &str, attr: &RawAttr<'a>) -> Cow<'a, str> {
    attr_value(input, attr).expect("references were checked when the tag was tokenized")
}

/// The resolved name for a lexical one: `uri` is what its prefix is bound
/// to or, unprefixed, the default namespace — which the caller passes for
/// elements only, never for attributes.
fn resolved_qname(prefix: Option<&str>, local: &str, uri: Option<&str>) -> QName {
    match prefix {
        Some(p) => QName::with_ns(uri.unwrap_or(""), local).with_prefix(p),
        None => match uri {
            Some(uri) if !uri.is_empty() => QName::with_ns(uri, local),
            _ => QName::new(local),
        },
    }
}

/// A pull parser over an in-memory document.
///
/// Produces a stream of [`RawEvent`]s with namespaces resolved. Rejects
/// DTDs and external entities by construction, and enforces a maximum
/// element depth of [`MAX_DEPTH`] (the secure defaults for middleware that
/// parses messages off the wire — unbounded depth lets a hostile document
/// overflow the stack of tree-building consumers).
///
/// ```
/// use wsg_xml::{RawEvent, XmlReader};
///
/// # fn main() -> Result<(), wsg_xml::XmlError> {
/// let mut reader = XmlReader::new("<a xmlns='urn:x'><b>hi</b></a>");
/// assert_eq!(reader.next_raw()?, RawEvent::Start);
/// assert_eq!(reader.element_name(), (Some("urn:x"), "a"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct XmlReader<'a> {
    input: &'a str,
    pos: usize,
    scope: Bindings<'a>,
    // The open elements, for close-tag matching and `element_name`.
    open: Vec<Open<'a>>,
    // Attributes of the start tag last tokenized; reused across tags.
    attrs: Vec<RawAttr<'a>>,
    // The last start tag was self-closing: its synthetic End is next.
    pending_end: bool,
    seen_root: bool,
    finished: bool,
    // Shallowest scope depth a namespace resolution consulted since the
    // last `reset_binding_watermark` (`usize::MAX` = none). Depth-0
    // bindings (the implicit `xml` prefix, a fragment's outer bindings)
    // never count: they are in scope wherever the subtree goes.
    binding_watermark: usize,
}

impl<'a> XmlReader<'a> {
    /// Create a reader over `input`.
    pub fn new(input: &'a str) -> Self {
        Self::with_bindings(input, &[])
    }

    /// A reader over a fragment cut out of a larger document: `outer`
    /// lists the `(prefix, uri)` bindings that were in scope where the
    /// fragment stood, outermost first (later entries shadow earlier
    /// ones; the empty prefix is the default namespace).
    pub fn with_bindings(input: &'a str, outer: &'a [(String, String)]) -> Self {
        // Room for a SOAP message's bindings and nesting: the two vectors
        // are sized once, not grown a step at a time per message.
        let mut entries = Vec::with_capacity(outer.len() + 6);
        entries.push((0, "xml", Cow::Borrowed(crate::XML_NS)));
        entries.extend(outer.iter().map(|(p, u)| (0, p.as_str(), Cow::Borrowed(u.as_str()))));
        XmlReader {
            input,
            pos: 0,
            scope: Bindings { entries, depth: 0 },
            open: Vec::with_capacity(8),
            attrs: Vec::new(),
            pending_end: false,
            seen_root: false,
            finished: false,
            binding_watermark: usize::MAX,
        }
    }

    /// Byte offset of the parse cursor.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Depth of the current namespace scope (one level per open element).
    pub fn scope_depth(&self) -> usize {
        self.scope.depth
    }

    /// The `(prefix, uri)` bindings declared by the open elements,
    /// outermost first (shadowed ones included, before their shadowers) —
    /// what [`XmlReader::with_bindings`] needs to read a subtree cut out
    /// at this point.
    pub fn in_scope_bindings(&self) -> Vec<(String, String)> {
        self.bindings().map(|(prefix, uri)| (prefix.to_string(), uri.to_string())).collect()
    }

    /// [`in_scope_bindings`](Self::in_scope_bindings), borrowed.
    pub fn bindings(&self) -> impl Iterator<Item = (&str, &str)> {
        self.scope
            .entries
            .iter()
            .filter(|(depth, _, _)| *depth > 0)
            .map(|(_, prefix, uri)| (*prefix, uri.as_ref()))
    }

    /// Start tracking which namespace bindings the following events consult.
    pub fn reset_binding_watermark(&mut self) {
        self.binding_watermark = usize::MAX;
    }

    /// Shallowest scope depth a namespace resolution consulted since the
    /// last [`reset_binding_watermark`](Self::reset_binding_watermark)
    /// (`usize::MAX` when none, or only the implicit `xml` binding, was).
    /// A subtree whose watermark stays **above** the scope depth at its
    /// start resolved every prefix from its own declarations — its byte
    /// span is a namespace-self-contained document on its own.
    pub fn binding_watermark(&self) -> usize {
        self.binding_watermark
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Pull the next event. Nothing is copied but text whose references
    /// had to be resolved.
    ///
    /// # Errors
    ///
    /// Returns an [`XmlError`] on malformed input; the reader should not be
    /// used further after an error.
    pub fn next_raw(&mut self) -> Result<RawEvent<'a>, XmlError> {
        Ok(match self.next_token(RESOLVING)? {
            Token::Start => RawEvent::Start,
            Token::End => {
                self.close_element();
                RawEvent::End
            }
            // As a tree holds it: a slice of the input unless a reference
            // had to be resolved.
            Token::Text { raw, at, refs: true } => RawEvent::Text(unescape(raw, at)?),
            Token::Text { raw, .. } => RawEvent::Text(Cow::Borrowed(raw)),
            Token::Eof => RawEvent::Eof,
            Token::Markup => RawEvent::Markup,
        })
    }

    /// Owned name and attributes (namespace declarations excluded) of the
    /// start tag last read, in document order — what a tree holds.
    pub(crate) fn start_tag(&self) -> (QName, Vec<(QName, String)>) {
        let attributes = self
            .attrs
            .iter()
            .filter(|attr| declared_prefix(attr.name).is_none())
            .map(|attr| {
                // Per the namespaces spec, unprefixed attributes are in no
                // namespace (the default does not apply).
                let (prefix, local) = QName::split_lexical(attr.name);
                let uri = self.scope.uri(prefix.and_then(|p| self.scope.resolve(p)));
                (resolved_qname(prefix, local, uri), checked_value(self.input, attr).into_owned())
            })
            .collect();
        (self.element_qname(), attributes)
    }

    /// Resolved namespace and local name of the innermost open element —
    /// after a [`RawEvent::Start`], the element just started. The local
    /// name is a slice of the input, and so is the namespace unless its
    /// declaration needed a reference resolved.
    pub fn element_name(&self) -> (Option<&str>, &'a str) {
        let (_, local, uri) = self.innermost();
        (uri.filter(|uri| !uri.is_empty()), local)
    }

    /// [`element_name`](Self::element_name) as an owned [`QName`].
    pub fn element_qname(&self) -> QName {
        let (prefix, local, uri) = self.innermost();
        resolved_qname(prefix, local, uri)
    }

    /// Prefix, local name and namespace of the innermost open element
    /// (nothing open: an empty unprefixed name).
    fn innermost(&self) -> (Option<&'a str>, &'a str, Option<&str>) {
        let open = self.open.last();
        let (prefix, local) = QName::split_lexical(open.map_or("", |open| open.name));
        let entry = match open.and_then(|open| open.ns) {
            Some(entry) => Some(entry as usize),
            None => self.scope.resolve(prefix.unwrap_or("")),
        };
        (prefix, local, self.scope.uri(entry))
    }

    /// Value of the attribute `(ns, local)` on the start tag last read
    /// (the first, should two prefixes make two attributes one name), as
    /// a tree would hold it: references resolved, whitespace normalised.
    pub fn attribute(&self, ns: Option<&str>, local: &str) -> Option<Cow<'a, str>> {
        let attr = self.attrs.iter().find(|attr| {
            let (prefix, name) = QName::split_lexical(attr.name);
            // The default namespace never applies to attributes.
            name == local
                && declared_prefix(attr.name).is_none()
                && self.scope.uri(prefix.and_then(|p| self.scope.resolve(p))) == ns
        })?;
        Some(checked_value(self.input, attr))
    }

    /// The character data directly inside the innermost open element —
    /// what [`Element::text`](crate::Element::text) returns for its tree:
    /// text and CDATA runs concatenated, child elements skipped over —
    /// consuming through the element's end tag. Borrowed when it is one
    /// run that needed no reference resolved.
    ///
    /// # Errors
    ///
    /// Exactly the error `next_raw` would have raised in the subtree.
    pub fn direct_text(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let mut text = Cow::Borrowed("");
        loop {
            match self.next_raw()? {
                RawEvent::Text(run) if text.is_empty() => text = run,
                RawEvent::Text(run) => text.to_mut().push_str(&run),
                RawEvent::Start => self.skip_element()?,
                RawEvent::End => return Ok(text),
                RawEvent::Eof => return Err(self.err(XmlErrorKind::UnexpectedEof)),
                RawEvent::Markup => {}
            }
        }
    }

    /// Advance past the end tag of the innermost open element — after a
    /// [`RawEvent::Start`], past that element's whole subtree — enforcing
    /// every rule [`next_raw`](Self::next_raw) enforces (it drives the
    /// same tokenizer) while resolving no reference and building no name
    /// or text: the fast path for subtrees a consumer only needs to frame.
    /// With no element open it does nothing.
    ///
    /// # Errors
    ///
    /// Exactly the error `next_raw` would have raised in the subtree.
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        let target = self.open.len();
        if target == 0 {
            return Ok(());
        }
        loop {
            // Text needs nothing more: the tokenizer checked its references.
            if let Token::End = self.next_token(CHECKING)? {
                cov!();
                self.close_element();
                if self.open.len() < target {
                    return Ok(());
                }
            }
        }
    }

    /// At a CDATA section inside an element, step over it and hand back
    /// what it holds, its characters unchecked; anywhere else, or when the
    /// section has no end, read nothing and return `None`. For a caller
    /// that puts the characters into a document it then reads whole, which
    /// checks them there: they are read once, not twice.
    pub fn cdata_unchecked(&mut self) -> Option<&'a str> {
        if self.pending_end || self.open.is_empty() || !self.input[self.pos..].starts_with("<![CDATA[") {
            return None;
        }
        let body = self.pos + "<![CDATA[".len();
        let close = body + cdata_end(&self.input[body..])?;
        self.pos = close + "]]>".len();
        Some(&self.input[body..close])
    }

    /// Consume the epilogue once the root element has closed: only
    /// comments, processing instructions and whitespace may follow, so
    /// trailing junk (a second root, stray text) is rejected rather than
    /// silently ignored.
    ///
    /// # Errors
    ///
    /// Whatever the tokenizer raises for the trailing content.
    pub fn finish(&mut self) -> Result<(), XmlError> {
        loop {
            match self.next_token(CHECKING)? {
                Token::Eof => return Ok(()),
                // Comments and PIs: a declaration here was rejected when
                // it was read.
                Token::Markup => {}
                _ => {
                    return Err(self.err(XmlErrorKind::Malformed(
                        "content after root element".into(),
                    )))
                }
            }
        }
    }

    /// Leave the element whose `End` token was just handled.
    fn close_element(&mut self) {
        self.open.pop();
        self.scope.pop_scope();
    }

    /// The next construct. `resolving`: the caller resolves the references
    /// of a text run itself, which checks them, so the tokenizer need not.
    fn next_token(&mut self, resolving: bool) -> Result<Token<'a>, XmlError> {
        #[cfg(debug_assertions)]
        let from = self.pos;
        let token = self.token(resolving);
        #[cfg(debug_assertions)]
        TOKENIZED.with(|bytes| bytes.set(bytes.get() + self.pos.saturating_sub(from)));
        token
    }

    fn token(&mut self, resolving: bool) -> Result<Token<'a>, XmlError> {
        if self.pending_end {
            cov!();
            self.pending_end = false;
            return Ok(Token::End);
        }
        if self.finished {
            cov!();
            return Ok(Token::Eof);
        }
        match self.input.as_bytes().get(self.pos) {
            None => {
                cov!();
                self.at_eof()
            }
            Some(b'<') => {
                cov!();
                self.parse_markup()
            }
            Some(_) => {
                cov!();
                self.parse_text(resolving)
            }
        }
    }

    fn at_eof(&mut self) -> Result<Token<'a>, XmlError> {
        if let Some(open) = self.open.last() {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed(format!("unclosed element <{}>", open.name)),
                self.pos,
            ));
        }
        if !self.seen_root {
            cov!();
            return Err(self.err(XmlErrorKind::UnexpectedEof));
        }
        self.finished = true;
        Ok(Token::Eof)
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.pos)
    }

    /// The character at byte `at` is one XML 1.0's `Char` production
    /// leaves out. No character reference stands for it either, so a
    /// document holding it has no well-formed spelling.
    fn not_char(&self, at: usize) -> XmlError {
        cov!();
        let c = self.input[at..].chars().next().unwrap_or_default();
        XmlError::new(
            XmlErrorKind::Malformed(format!("character U+{:04X} not allowed", u32::from(c))),
            at,
        )
    }

    fn parse_text(&mut self, resolving: bool) -> Result<Token<'a>, XmlError> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        if self.open.is_empty() {
            let end = find_byte(bytes, start, b'<').unwrap_or(bytes.len());
            self.pos = end;
            // Only whitespace is allowed outside the root element.
            if bytes[start..end].iter().all(|&b| is_space(b)) {
                cov!();
                return if self.pos >= bytes.len() {
                    self.at_eof()
                } else {
                    self.token(resolving)
                };
            }
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed("character data outside root element".into()),
                start,
            ));
        }
        // One pass finds the `<` that ends the run, any `]]>` in it and
        // the first character outside `Char`, and checks the predefined
        // entities on the way. The first other reference leaves the rest of
        // the run to `check_refs`; a resolving caller needs to know only
        // that there is one.
        let (mut from, mut refs, mut unchecked, mut cdata_close) = (start, false, None, false);
        let mut not_char = None;
        let end = loop {
            let amps = unchecked.is_none() && !(resolving && refs);
            let next = find_by(bytes, from, |b| {
                (b == b'<') | (b == b']') | (amps & (b == b'&')) | may_start_not_char(b)
            });
            let Some(at) = next else { break bytes.len() };
            match bytes[at] {
                b'<' => break at,
                b'&' => {
                    refs = true;
                    from = at + 1;
                    if resolving {
                        continue;
                    }
                    match predefined(&bytes[from..]) {
                        Some((_, len)) => from += len,
                        None => {
                            cov!();
                            unchecked = Some(at);
                        }
                    }
                }
                b']' => {
                    cdata_close |= bytes[at + 1..].starts_with(b"]>");
                    from = at + 1;
                }
                _ => {
                    not_char = not_char.or_else(|| not_char_at(bytes, at).then_some(at));
                    from = at + 1;
                }
            }
        };
        let raw = &self.input[start..end];
        self.pos = end;
        if cdata_close {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed("']]>' not allowed in character data".into()),
                start,
            ));
        }
        if let Some(at) = not_char {
            return Err(self.not_char(at));
        }
        if let Some(at) = unchecked {
            check_refs(&self.input[at..end], at)?;
        }
        cov!();
        Ok(Token::Text { raw, at: start, refs })
    }

    fn parse_markup(&mut self) -> Result<Token<'a>, XmlError> {
        let rest = &self.input.as_bytes()[self.pos..];
        match rest.get(1) {
            Some(b'?') => {
                cov!();
                self.parse_pi()
            }
            Some(b'!') if rest.starts_with(b"<!--") => {
                cov!();
                self.parse_comment()
            }
            Some(b'!') if rest.starts_with(b"<![CDATA[") => {
                cov!();
                self.parse_cdata()
            }
            Some(b'!') => {
                cov!();
                Err(self.err(XmlErrorKind::Unsupported(
                    "DTD / declaration markup ('<!') is not supported".into(),
                )))
            }
            Some(b'/') => {
                cov!();
                self.parse_end_tag()
            }
            _ => {
                cov!();
                self.parse_start_tag()
            }
        }
    }

    fn parse_pi(&mut self) -> Result<Token<'a>, XmlError> {
        let after = &self.input[self.pos + 2..];
        let close = after
            .find("?>")
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let content = &after[..close];
        let consumed = 2 + close + 2;
        let target = &content[..content.bytes().position(is_space).unwrap_or(content.len())];
        let start_pos = self.pos;
        self.pos += consumed;
        if target.contains(char::is_whitespace) {
            // Whitespace that is not `S` separates nothing, and no target
            // may hold it.
            cov!();
            return Err(XmlError::new(XmlErrorKind::InvalidName(target.to_string()), start_pos));
        }
        if let Some(at) = find_not_char(content.as_bytes()) {
            return Err(self.not_char(start_pos + 2 + at));
        }
        if target.eq_ignore_ascii_case("xml") && start_pos != 0 {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed("xml declaration not at document start".into()),
                start_pos,
            ));
        }
        Ok(Token::Markup)
    }

    fn parse_comment(&mut self) -> Result<Token<'a>, XmlError> {
        let body = &self.input[self.pos + 4..];
        let close = body
            .find("-->")
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let text = &body[..close];
        if text.contains("--") {
            cov!();
            return Err(self.err(XmlErrorKind::Malformed("'--' inside comment".into())));
        }
        if let Some(at) = find_not_char(text.as_bytes()) {
            return Err(self.not_char(self.pos + 4 + at));
        }
        self.pos += 4 + close + 3;
        Ok(Token::Markup)
    }

    fn parse_cdata(&mut self) -> Result<Token<'a>, XmlError> {
        if self.open.is_empty() {
            cov!();
            return Err(self.err(XmlErrorKind::Malformed(
                "CDATA outside root element".into(),
            )));
        }
        cov!();
        let bytes = self.input.as_bytes();
        let body = self.pos + 9;
        let (mut from, mut not_char) = (body, None);
        let close = loop {
            let at = find_by(bytes, from, |b| (b == b']') | may_start_not_char(b))
                .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
            from = at + 1;
            if bytes[at] != b']' {
                not_char = not_char.or_else(|| not_char_at(bytes, at).then_some(at));
            } else if bytes[from..].starts_with(b"]>") {
                break at;
            }
        };
        if let Some(at) = not_char {
            return Err(self.not_char(at));
        }
        self.pos = close + 3;
        Ok(Token::Text { raw: &self.input[body..close], at: body, refs: false })
    }

    fn parse_end_tag(&mut self) -> Result<Token<'a>, XmlError> {
        let bytes = self.input.as_bytes();
        let tag_start = self.pos;
        // The one end tag that may stand here names the open element.
        if let Some(open) = self.open.last() {
            let name_end = tag_start + 2 + open.name.len();
            if bytes.get(tag_start + 2..name_end) == Some(open.name.as_bytes()) {
                let spaces = bytes[name_end..].iter().take_while(|&&b| is_space(b)).count();
                let close = name_end + spaces;
                if bytes.get(close) == Some(&b'>') {
                    if spaces > 0 {
                        cov!();
                    }
                    cov!();
                    self.pos = close + 1;
                    return Ok(Token::End);
                }
            }
        }
        // Anything else is an error: find the `>`, then say which.
        cov!();
        let body = &self.input[tag_start + 2..];
        let close = body
            .find('>')
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let lexical = body[..close].trim_end_matches(SPACE);
        self.pos += 2 + close + 1;
        let Some(open) = self.open.last() else {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed(format!("close tag </{lexical}> with no open element")),
                tag_start,
            ));
        };
        if open.name != lexical {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::MismatchedTag {
                    expected: open.name.to_string(),
                    found: lexical.to_string(),
                },
                tag_start,
            ));
        }
        Ok(Token::End)
    }

    fn parse_start_tag(&mut self) -> Result<Token<'a>, XmlError> {
        let tag_start = self.pos;
        self.pos += 1; // consume '<'
        let name = self.read_qname(Some(tag_start))?;
        self.attrs.clear();
        let empty = loop {
            self.skip_whitespace();
            match self.input.as_bytes()[self.pos..] {
                [b'/', b'>', ..] => {
                    cov!();
                    self.pos += 2;
                    break true;
                }
                [b'>', ..] => {
                    cov!();
                    self.pos += 1;
                    break false;
                }
                [] => {
                    cov!();
                    return Err(self.err(XmlErrorKind::UnexpectedEof));
                }
                _ => {}
            }
            let attr = self.read_attribute()?;
            if self.attrs.iter().any(|seen| seen.name == attr.name) {
                cov!();
                return Err(XmlError::new(
                    XmlErrorKind::DuplicateAttribute(attr.name.to_string()),
                    tag_start,
                ));
            }
            cov!();
            self.attrs.push(attr);
        };

        if self.open.is_empty() {
            if self.seen_root {
                cov!();
                return Err(XmlError::new(
                    XmlErrorKind::Malformed("multiple root elements".into()),
                    tag_start,
                ));
            }
            self.seen_root = true;
        }
        if self.open.len() >= MAX_DEPTH {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed(format!("element depth exceeds {MAX_DEPTH}")),
                tag_start,
            ));
        }

        // Namespace processing: declarations first, then resolution.
        self.scope.depth += 1;
        for attr in &self.attrs {
            let Some(prefix) = declared_prefix(attr.name) else { continue };
            cov!();
            let uri = attr_value(self.input, attr)?;
            if !prefix.is_empty() && uri.is_empty() {
                cov!();
                return Err(XmlError::new(
                    XmlErrorKind::Malformed(format!(
                        "cannot bind prefix '{prefix}' to empty namespace"
                    )),
                    tag_start,
                ));
            }
            self.scope.entries.push((self.scope.depth, prefix, uri));
        }

        // Each prefix is resolved once per tag; the element keeps its entry.
        // Depth-0 bindings never move the watermark.
        let entries = &self.scope.entries;
        let mut watermark = self.binding_watermark;
        let mut consult = |entry: usize| {
            let depth = entries[entry].0;
            if depth > 0 {
                watermark = watermark.min(depth);
            }
        };
        let undeclared = |prefix: &str| {
            XmlError::new(XmlErrorKind::UndeclaredPrefix(prefix.to_string()), tag_start)
        };
        let element_prefix = QName::split_lexical(name).0;
        let ns = match element_prefix {
            Some(prefix) => {
                let entry = self.scope.resolve(prefix).ok_or_else(|| undeclared(prefix))?;
                consult(entry);
                Some(entry)
            }
            None => {
                let entry = self.scope.resolve("");
                if let Some(entry) = entry.filter(|&i| !entries[i].2.is_empty()) {
                    consult(entry);
                }
                entry
            }
        };
        for attr in &self.attrs {
            let Some(prefix) = QName::split_lexical(attr.name).0 else { continue };
            if declared_prefix(attr.name).is_some() {
                continue;
            }
            let entry = match ns {
                Some(entry) if element_prefix == Some(prefix) => entry,
                _ => self.scope.resolve(prefix).ok_or_else(|| {
                    cov!();
                    undeclared(prefix)
                })?,
            };
            consult(entry);
        }
        self.binding_watermark = watermark;

        self.open.push(Open { name, ns: ns.and_then(|entry| u32::try_from(entry).ok()) });
        self.pending_end = empty;
        cov!();
        Ok(Token::Start)
    }

    /// Read a name at the cursor, and raise `InvalidName` at `invalid_at`
    /// (`None`: the cursor after the name) unless it is a QName: at most
    /// one colon, with a prefix and a local part that each start with a
    /// name-start character. Over ASCII a class table answers both; a
    /// non-ASCII character hands the rest to
    /// [`read_qname_unicode`](Self::read_qname_unicode).
    fn read_qname(&mut self, invalid_at: Option<usize>) -> Result<&'a str, XmlError> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        match bytes.get(start) {
            Some(&b) if name_class(b) & NAME_START != 0 => {}
            Some(&b) if !b.is_ascii() => {
                cov!();
                return self.read_qname_unicode(start, start, invalid_at);
            }
            Some(&b) => {
                cov!();
                return Err(self.err(XmlErrorKind::InvalidName(char::from(b).to_string())));
            }
            None => {
                cov!();
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        }
        // One loop reads the name and counts its colons.
        let (mut end, mut colons, mut colon) = (start, 0, start);
        loop {
            match bytes.get(end) {
                Some(b':') => {
                    colons += 1;
                    if colons == 1 {
                        colon = end;
                    }
                }
                Some(&b) if name_class(b) & NAME_CHAR != 0 => {}
                Some(&b) if !b.is_ascii() => {
                    cov!();
                    return self.read_qname_unicode(start, end, invalid_at);
                }
                _ => break,
            }
            end += 1;
        }
        let local_start = |b: &u8| name_class(*b) & NAME_START != 0;
        let qname = match colons {
            0 => true,
            1 => colon > start && bytes.get(colon + 1).is_some_and(local_start),
            _ => false,
        };
        self.end_qname(start, end, qname, invalid_at)
    }

    /// [`read_qname`](Self::read_qname) `char` by `char`, from `from` on:
    /// the name starts at `start`, and any bytes between are ASCII name
    /// characters already read.
    fn read_qname_unicode(
        &mut self,
        start: usize,
        from: usize,
        invalid_at: Option<usize>,
    ) -> Result<&'a str, XmlError> {
        let rest = &self.input[from..];
        let mut chars = rest.char_indices();
        if from == start {
            match chars.next() {
                Some((_, c)) if is_name_start(c) => {}
                Some((_, c)) => {
                    cov!();
                    return Err(self.err(XmlErrorKind::InvalidName(c.to_string())));
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
        let end = from + chars.find(|&(_, c)| !is_name_char(c)).map_or(rest.len(), |(i, _)| i);
        let qname = validate_qname(&self.input[start..end]).is_ok();
        self.end_qname(start, end, qname, invalid_at)
    }

    /// Move past the name `start..end`, which may be no QName.
    fn end_qname(
        &mut self,
        start: usize,
        end: usize,
        qname: bool,
        invalid_at: Option<usize>,
    ) -> Result<&'a str, XmlError> {
        self.pos = end;
        let name = &self.input[start..end];
        if !qname {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::InvalidName(name.to_string()),
                invalid_at.unwrap_or(end),
            ));
        }
        Ok(name)
    }

    fn read_attribute(&mut self) -> Result<RawAttr<'a>, XmlError> {
        let name = self.read_qname(None)?;
        self.skip_whitespace();
        let bytes = self.input.as_bytes();
        if bytes.get(self.pos) != Some(&b'=') {
            cov!();
            return Err(self.err(XmlErrorKind::Malformed(format!(
                "expected '=' after attribute '{name}'"
            ))));
        }
        self.pos += 1;
        self.skip_whitespace();
        let quote = match bytes.get(self.pos) {
            Some(&quote @ (b'"' | b'\'')) => quote,
            Some(_) => {
                cov!();
                let c = self.input[self.pos..].chars().next().unwrap_or_default();
                return Err(self.err(XmlErrorKind::Malformed(format!(
                    "attribute value must be quoted, found '{c}'"
                ))));
            }
            None => {
                cov!();
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        };
        // One pass finds the closing quote and notes what the value holds:
        // a `<` and a character outside `Char` (errors once the value is
        // known to end), references (the predefined ones checked on the way,
        // as for text) and characters that normalisation rewrites.
        let at = self.pos + 1;
        let (mut from, mut lt, mut plain, mut unchecked) = (at, false, true, None);
        let mut not_char = None;
        let close = loop {
            let next = find_by(bytes, from, |b| {
                (b == quote) | (b == b'<') | (b == b'&') | may_start_not_char(b)
            });
            let Some(at) = next else {
                cov!();
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            };
            from = at + 1;
            match bytes[at] {
                b if b == quote => break at,
                b'<' => lt = true,
                b'&' => {
                    plain = false;
                    if unchecked.is_none() {
                        match predefined(&bytes[from..]) {
                            Some((_, len)) => from += len,
                            None => {
                                cov!();
                                unchecked = Some(at);
                            }
                        }
                    }
                }
                b'\t' | b'\n' | b'\r' => plain = false,
                _ => not_char = not_char.or_else(|| not_char_at(bytes, at).then_some(at)),
            }
        };
        if lt {
            cov!();
            return Err(self.err(XmlErrorKind::Malformed(
                "'<' not allowed in attribute value".into(),
            )));
        }
        if let Some(at) = not_char {
            return Err(self.not_char(at));
        }
        self.pos = close + 1;
        if let Some(amp) = unchecked {
            check_refs(&self.input[amp..close], amp)?;
        }
        Ok(RawAttr { name, raw: &self.input[at..close], plain })
    }

    fn skip_whitespace(&mut self) {
        let bytes = self.input.as_bytes();
        while bytes.get(self.pos).is_some_and(|&b| is_space(b)) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    /// The events of `input` up to its `Eof`, spelled: a start tag as its
    /// resolved name (`<{ns}local>`), an end tag as `</>`, text as itself
    /// and markup as `?`.
    fn events(input: &str) -> Vec<String> {
        let mut reader = XmlReader::new(input);
        let mut out = Vec::new();
        loop {
            out.push(match reader.next_raw().expect("parse error") {
                RawEvent::Start => match reader.element_name() {
                    (Some(ns), local) => format!("<{{{ns}}}{local}>"),
                    (None, local) => format!("<{local}>"),
                },
                RawEvent::End => "</>".to_string(),
                RawEvent::Text(text) => text.into_owned(),
                RawEvent::Markup => "?".to_string(),
                RawEvent::Eof => return out,
            });
        }
    }

    /// The first error `next_raw` raises on `input`.
    fn first_error(input: &str) -> Option<XmlError> {
        let mut reader = XmlReader::new(input);
        loop {
            match reader.next_raw() {
                Ok(RawEvent::Eof) => return None,
                Ok(_) => {}
                Err(error) => return Some(error),
            }
        }
    }

    #[test]
    fn simple_document() {
        assert_eq!(events("<a><b>text</b></a>"), ["<a>", "<b>", "text", "</>", "</>"]);
    }

    #[test]
    fn self_closing_emits_end() {
        assert_eq!(events("<a/>"), ["<a>", "</>"]);
        // The element is open between the two, as between `<a>` and `</a>`.
        let mut r = XmlReader::new("<a/>");
        r.next_raw().unwrap();
        assert_eq!((r.depth(), r.element_name()), (1, (None, "a")));
        assert_eq!(r.next_raw().unwrap(), RawEvent::End);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn declaration_parsed() {
        // Accepted in either quote and skipped whole; only at the start.
        for doc in ["<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>", "<?xml version='1.0'?>\n<a/>"]
        {
            assert_eq!(events(doc), ["?", "<a>", "</>"], "{doc}");
        }
        let mut r = XmlReader::new("<?xml version='1.0'?><a/>");
        assert_eq!(r.next_raw().unwrap(), RawEvent::Markup);
        assert_eq!(r.position(), "<?xml version='1.0'?>".len());
        for misplaced in [" <?xml version='1.0'?><a/>", "<a/><?xml version='1.0'?>"] {
            let error = first_error(misplaced).unwrap();
            let kind = XmlErrorKind::Malformed("xml declaration not at document start".into());
            assert_eq!(error.kind(), &kind, "{misplaced}");
        }
    }

    #[test]
    fn default_namespace_applies_to_elements_not_attrs() {
        let mut r = XmlReader::new("<a xmlns=\"urn:x\" id=\"1\"><b/></a>");
        r.next_raw().unwrap();
        let (name, attributes) = r.start_tag();
        assert_eq!(name.namespace(), Some("urn:x"));
        assert_eq!(attributes, [(QName::new("id"), "1".to_string())]);
        assert_eq!(r.attribute(None, "id").as_deref(), Some("1"));
        assert_eq!(r.next_raw().unwrap(), RawEvent::Start);
        assert_eq!(r.element_name(), (Some("urn:x"), "b"));
    }

    #[test]
    fn prefixed_namespaces_resolve_and_shadow() {
        // The inner declaration shadows the outer one until its element
        // closes.
        assert_eq!(
            events("<p:a xmlns:p=\"urn:one\"><p:a xmlns:p=\"urn:two\"/><p:b/></p:a>"),
            ["<{urn:one}a>", "<{urn:two}a>", "</>", "<{urn:one}b>", "</>", "</>"]
        );
    }

    #[test]
    fn undeclared_prefix_rejected() {
        let err = XmlReader::new("<p:a/>").next_raw().unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UndeclaredPrefix(p) if p == "p"));
    }

    #[test]
    fn mismatched_close_rejected() {
        let mut r = XmlReader::new("<a><b></a></b>");
        r.next_raw().unwrap();
        r.next_raw().unwrap();
        let err = r.next_raw().unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_rejected() {
        let mut r = XmlReader::new("<a>");
        r.next_raw().unwrap();
        assert!(r.next_raw().is_err());
    }

    #[test]
    fn multiple_roots_rejected() {
        let mut r = XmlReader::new("<a/><b/>");
        r.next_raw().unwrap();
        r.next_raw().unwrap(); // synthetic end of <a/>
        assert!(r.next_raw().is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        let mut r = XmlReader::new("hello<a/>");
        assert!(r.next_raw().is_err());
    }

    #[test]
    fn whitespace_outside_root_ok() {
        assert_eq!(events("  <a/>  "), ["<a>", "</>"]);
    }

    #[test]
    fn cdata_passes_through_verbatim() {
        assert_eq!(
            events("<a><![CDATA[<raw> & stuff]]><![CDATA[]]></a>"),
            ["<a>", "<raw> & stuff", "", "</>"]
        );
    }

    #[test]
    fn text_is_borrowed_unless_a_reference_was_resolved() {
        let mut r = XmlReader::new("<a>plain<![CDATA[&amp;]]>x &amp; y</a>");
        r.next_raw().unwrap();
        assert!(matches!(r.next_raw().unwrap(), RawEvent::Text(Cow::Borrowed("plain"))));
        assert!(matches!(r.next_raw().unwrap(), RawEvent::Text(Cow::Borrowed("&amp;"))));
        assert!(matches!(r.next_raw().unwrap(), RawEvent::Text(Cow::Owned(text)) if text == "x & y"));
        assert_eq!(r.next_raw().unwrap(), RawEvent::End);
    }

    #[test]
    fn comments_and_pis() {
        // Checked and skipped whole, before, inside and after the root.
        assert_eq!(
            events("<!-- hi --><a><?pi some data?><!----></a><?done?>"),
            ["?", "<a>", "?", "?", "</>", "?"]
        );
        let mut r = XmlReader::new("<!-- hi --><a/>");
        assert_eq!(r.next_raw().unwrap(), RawEvent::Markup);
        assert_eq!(r.position(), "<!-- hi -->".len());
        for bad in ["<a><!-- a -- b --></a>", "<a><?pi open</a>", "<a><!-- open</a>"] {
            assert!(first_error(bad).is_some(), "{bad}");
        }
    }

    #[test]
    fn dtd_rejected() {
        let mut r = XmlReader::new("<!DOCTYPE a><a/>");
        let err = r.next_raw().unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Unsupported(_)));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let mut r = XmlReader::new("<a x=\"1 &lt; 2\">&amp;&#65;</a>");
        r.next_raw().unwrap();
        assert_eq!(r.attribute(None, "x").as_deref(), Some("1 < 2"));
        assert_eq!(r.next_raw().unwrap(), RawEvent::Text("&A".into()));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut r = XmlReader::new("<a x=\"1\" x=\"2\"/>");
        assert!(matches!(
            r.next_raw().unwrap_err().kind(),
            XmlErrorKind::DuplicateAttribute(_)
        ));
    }

    #[test]
    fn attribute_value_newline_normalised() {
        let mut r = XmlReader::new("<a x=\"l1\nl2\"/>");
        r.next_raw().unwrap();
        assert_eq!(r.attribute(None, "x").as_deref(), Some("l1 l2"));
        assert_eq!(r.start_tag().1, [(QName::new("x"), "l1 l2".to_string())]);
    }

    #[test]
    fn direct_text_is_what_the_tree_holds() {
        // Descendant text is not the element's own, as in `Element::text`.
        for doc in [
            "<a>x<b>skip</b>y<![CDATA[z]]></a>",
            "<a>plain</a>",
            "<a> x &amp; y </a>",
            "<a><?pi data?>x<!-- c -->y</a>",
            "<a/>",
            "<a><b>only</b></a>",
        ] {
            let mut r = XmlReader::new(doc);
            assert_eq!(r.next_raw().unwrap(), RawEvent::Start);
            let text = r.direct_text().unwrap();
            assert_eq!(text, Element::parse(doc).unwrap().text(), "{doc}");
            assert_eq!(r.next_raw().unwrap(), RawEvent::Eof, "{doc}");
        }
        // One run with nothing to resolve is a slice of the input.
        let mut r = XmlReader::new("<a>plain</a>");
        r.next_raw().unwrap();
        assert!(matches!(r.direct_text().unwrap(), Cow::Borrowed("plain")));
        let mut r = XmlReader::new("<a>x<b>skip</b>y</a>");
        r.next_raw().unwrap();
        assert!(matches!(r.direct_text().unwrap(), Cow::Owned(text) if text == "xy"));
        // The subtree's errors are the reader's.
        let mut r = XmlReader::new("<a>x<b></c></a>");
        r.next_raw().unwrap();
        assert_eq!(r.direct_text().err(), first_error("<a>x<b></c></a>"));
        let mut r = XmlReader::new("<a>x");
        r.next_raw().unwrap();
        assert!(r.direct_text().is_err());
    }

    #[test]
    fn attribute_resolves_names_the_way_a_tree_does() {
        let doc = r#"<a xmlns="urn:d" xmlns:p="urn:p" xmlns:q="urn:p" k="plain" p:k=" a&#x9;b " q:k="second" xmlns:r="urn:r"/>"#;
        let mut r = XmlReader::new(doc);
        r.next_raw().unwrap();
        let tree = Element::parse(doc).unwrap();
        // Unprefixed: no namespace, whatever the default is.
        assert!(matches!(r.attribute(None, "k"), Some(Cow::Borrowed("plain"))));
        assert_eq!(r.attribute(Some("urn:d"), "k"), None);
        // Prefixed: by namespace, not by prefix; the first of two wins;
        // references resolved as in the tree.
        assert_eq!(r.attribute(Some("urn:p"), "k").as_deref(), tree.attr_ns("urn:p", "k"));
        assert_eq!(r.attribute(Some("urn:p"), "k").as_deref(), Some(" a b "));
        // Namespace declarations are not attributes.
        assert_eq!(r.attribute(None, "xmlns"), None);
        assert_eq!(r.attribute(None, "p"), None);
        assert_eq!(r.attribute(Some("http://www.w3.org/2000/xmlns/"), "r"), None);
        assert_eq!(r.attribute(Some("urn:r"), "k"), None);
        // Nothing open: nothing named.
        assert_eq!(XmlReader::new("<a/>").element_name(), (None, ""));
    }

    #[test]
    fn pathological_depth_rejected_not_overflowed() {
        let deep = "<a>".repeat(100_000);
        assert!(first_error(&deep).is_some(), "depth limit must trigger an error");
        // And the tree builder must therefore be safe too.
        assert!(crate::tree::Element::parse(&deep).is_err());
    }

    #[test]
    fn eof_is_idempotent() {
        let mut r = XmlReader::new("<a/>");
        while r.next_raw().unwrap() != RawEvent::Eof {}
        assert_eq!(r.next_raw().unwrap(), RawEvent::Eof);
    }

    /// Read to the root start tag, leave the root by `skip_element` or by
    /// building its tree, and report where that ended (or the error).
    fn leave_root(input: &str, skip: bool) -> Result<usize, XmlError> {
        let mut reader = XmlReader::new(input);
        while reader.next_raw()? != RawEvent::Start {}
        if skip {
            reader.skip_element()?;
        } else {
            Element::from_open(&mut reader)?;
        }
        let end = reader.position();
        reader.finish()?;
        Ok(end)
    }

    #[test]
    fn skip_element_agrees_with_tree_building_on_verdict_error_and_offset() {
        for input in [
            "<a/>",
            "<?xml version=\"1.0\"?><a x=\"1\"><b>t &amp; u</b><![CDATA[<raw>]]><!-- c --><?pi d?></a> ",
            "<p:a xmlns:p=\"urn:p\"><p:b p:k=\"v\"/></p:a>",
            // Every rule the reader enforces, broken once.
            "<a><b></a></b>",
            "<a><b>",
            "<a><b x=\"1\" x=\"2\"/></a>",
            "<a>&nope;</a>",
            "<a>&#xD800;</a>",
            "<a k=\"&nope;\"/>",
            "<a>x]]>y</a>",
            "<a><p:b/></a>",
            "<a><b p:k=\"v\"/></a>",
            "<a><!DOCTYPE b></a>",
            "<a><wsa:0 xmlns:wsa=\"urn:w\"/></a>",
            "<a><b xmlns:p=\"\"/></a>",
            "<a><!-- a -- b --></a>",
            "<a/><b/>",
            "<a/>junk",
        ] {
            assert_eq!(leave_root(input, true), leave_root(input, false), "{input}");
        }
        let deep = format!("<r>{}</r>", "<a>".repeat(MAX_DEPTH + 8));
        assert_eq!(leave_root(&deep, true), leave_root(&deep, false));
        assert!(leave_root(&deep, true).is_err());
    }

    #[test]
    fn skip_element_leaves_the_cursor_after_the_subtree() {
        let mut r = XmlReader::new("<a><b><c/>text</b><d/></a>");
        r.next_raw().unwrap(); // <a>
        r.next_raw().unwrap(); // <b>
        r.skip_element().unwrap();
        assert_eq!(r.depth(), 1);
        assert_eq!(r.next_raw().unwrap(), RawEvent::Start);
        assert_eq!(r.element_name(), (None, "d"));
        r.skip_element().unwrap(); // self-closing: only the synthetic end
        assert_eq!(r.element_name(), (None, "a"));
        assert_eq!(r.next_raw().unwrap(), RawEvent::End);
        r.skip_element().unwrap(); // nothing open: a no-op
        assert_eq!(r.next_raw().unwrap(), RawEvent::Eof);
    }

    #[test]
    fn skipping_moves_the_binding_watermark_like_reading() {
        let mut r = XmlReader::new("<r xmlns:o=\"urn:o\"><a xmlns:i=\"urn:i\"><i:x/></a><b><o:x/></b></r>");
        r.next_raw().unwrap(); // <r>
        r.next_raw().unwrap(); // <a>
        r.reset_binding_watermark();
        r.skip_element().unwrap();
        assert!(r.binding_watermark() > 1, "<a> resolves i: from its own declaration");
        r.next_raw().unwrap(); // <b>
        r.reset_binding_watermark();
        r.skip_element().unwrap();
        assert_eq!(r.binding_watermark(), 1, "<b> leans on the root's o: binding");
        assert_eq!(r.in_scope_bindings(), [("o".to_string(), "urn:o".to_string())]);
    }

    #[test]
    fn a_fragment_reads_in_the_scope_it_was_cut_from() {
        let outer = [("o".to_string(), "urn:o".to_string()), (String::new(), "urn:d".to_string())];
        let mut r = XmlReader::with_bindings("<o:x><y/></o:x>", &outer);
        r.next_raw().unwrap();
        assert_eq!(r.element_name(), (Some("urn:o"), "x"));
        r.next_raw().unwrap();
        assert_eq!(r.element_name(), (Some("urn:d"), "y"));
        assert_eq!(r.binding_watermark(), usize::MAX, "outer bindings sit at depth 0");
        assert!(XmlReader::new("<o:x/>").next_raw().is_err());
    }

    #[test]
    fn characters_outside_xml_char_are_rejected_wherever_they_stand() {
        // `@` marks the spot: text, an attribute value, CDATA, a comment,
        // a processing instruction.
        let places = [
            "<a>x@y</a>",
            "<a b='x@y'/>",
            "<a><![CDATA[x@y]]></a>",
            "<a><!--x@y--></a>",
            "<a><?pi x@y?></a>",
        ];
        let rejected = ['\u{1}', '\u{B}', '\u{1F}', '\u{FFFE}', '\u{FFFF}'];
        let accepted =
            ['\u{9}', '\u{A}', '\u{D}', '\u{85}', '\u{D7FF}', '\u{E000}', '\u{10000}'];
        for place in places {
            let at = place.find('@').unwrap();
            for c in rejected {
                let input = place.replace('@', c.encode_utf8(&mut [0; 4]));
                let kind = XmlErrorKind::Malformed(format!(
                    "character U+{:04X} not allowed",
                    u32::from(c)
                ));
                for skip in [false, true] {
                    let error = leave_root(&input, skip).unwrap_err();
                    assert_eq!((error.kind(), error.position()), (&kind, at), "{input:?}");
                }
            }
            for c in accepted {
                let input = place.replace('@', c.encode_utf8(&mut [0; 4]));
                assert_eq!(leave_root(&input, true), Ok(input.len()), "{input:?}");
                assert!(Element::parse(&input).is_ok(), "{input:?}");
            }
        }
        // Past the first word of a long run, and in the declaration.
        let long = format!("<a>{}\u{FFFF}</a>", "x".repeat(40));
        assert_eq!(Element::parse(&long).unwrap_err().position(), 43);
        assert_eq!(Element::parse("<?xml version='1.0\u{1}'?><a/>").unwrap_err().position(), 18);
    }

    #[test]
    fn whitespace_is_xml_s_and_nothing_else() {
        // Unicode calls these whitespace; XML 1.0 does not, so none of them
        // separates anything.
        let invalid = |c: &str| XmlErrorKind::InvalidName(c.to_string());
        let malformed = |what: &str| XmlErrorKind::Malformed(what.to_string());
        let outside = "character data outside root element";
        let mismatched =
            XmlErrorKind::MismatchedTag { expected: "a".into(), found: "a\u{85}".into() };
        for (input, kind, at) in [
            ("<a\u{3000}b='1'/>", invalid("\u{3000}"), 2),
            ("<a\u{a0}b='1'/>", invalid("\u{a0}"), 2),
            ("<a>x</a\u{85}>", mismatched, 4),
            ("<a\u{b}/>", invalid("\u{b}"), 2),
            ("\u{3000}<a/>", malformed(outside), 0),
            ("<a/>\u{85}", malformed(outside), 4),
            ("<a b\u{2002}='1'/>", malformed("expected '=' after attribute 'b'"), 4),
            ("<?pi\u{3000}data?><a/>", invalid("pi\u{3000}data"), 0),
        ] {
            let error = first_error(input).unwrap_or_else(|| panic!("{input:?} parsed"));
            assert_eq!((error.kind(), error.position()), (&kind, at), "{input:?}");
        }

        // The four characters XML does call whitespace are skipped
        // wherever the grammar skips any.
        for s in [" ", "\t", "\r", "\n"] {
            let doc = format!(
                "<?xml{s}version{s}={s}'1.0'{s}encoding='UTF-8'?>{s}<?pi{s}data?>\
                 <a{s}b{s}={s}'1'{s}c='2'{s}>x</a{s}>{s}"
            );
            assert_eq!(events(&doc)[..2], ["?", "?"], "{doc:?}");
            let root = Element::parse(&doc).unwrap();
            assert_eq!((root.attr("b"), root.attr("c")), (Some("1"), Some("2")));
            assert_eq!(root.text(), "x");
        }
    }
}
