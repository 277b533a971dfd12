//! A namespace-aware pull parser.
//!
//! Two layers share one grammar. The **token layer** ([`XmlReader`]'s
//! private `next_token`) recognises every construct as slices of the
//! input and enforces all well-formedness and namespace rules without
//! building a `String` or a [`QName`]. On top of it sit three consumers:
//! [`XmlReader::next_event`] turns tokens into owned [`XmlEvent`]s,
//! [`XmlReader::next_raw`] hands them over as slices of the input (a
//! [`RawEvent`]; the name and attributes of a start tag are asked of the
//! reader), and [`XmlReader::skip_element`] discards them — same
//! accept/reject decisions, same end offset, and for the last two no
//! allocation.

use std::borrow::Cow;

use wsg_net::cov;

use crate::error::{XmlError, XmlErrorKind};
use crate::escape::{check_refs, is_name_char, is_name_start, unescape, validate_qname};
use crate::event::{Attribute, XmlEvent};
use crate::name::QName;

/// Maximum element nesting depth accepted by the reader.
pub const MAX_DEPTH: usize = 512;

/// One lexical construct, as slices of the input.
enum Token<'a> {
    /// `<?xml ...?>` at the document start; the pseudo-attribute text.
    Declaration(&'a str),
    Pi { target: &'a str, data: &'a str },
    Comment(&'a str),
    CData(&'a str),
    /// Character data, still escaped; the consumer resolves or checks its
    /// references (`unescape` / `check_refs`) from byte offset `at`.
    Text { raw: &'a str, at: usize },
    /// A start tag. The element is open (its lexical name is the last of
    /// `XmlReader::open`), its scope pushed and its attributes (validated)
    /// sit in `XmlReader::attrs`.
    Start { empty: bool },
    /// A matched end tag (or the synthetic one after `<a/>`). The element
    /// stays open until the consumer calls `close_element`, so its own
    /// namespace declarations can still resolve its name.
    End { lexical: &'a str },
    Eof,
}

/// One event as slices of the input — what [`XmlReader::next_event`] would
/// have copied, before anything is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawEvent<'a> {
    /// A start tag. The element is now the innermost open one: its name is
    /// [`XmlReader::element_name`], its attributes [`XmlReader::attribute`].
    /// As with [`XmlEvent::StartElement`], `<a/>` is followed by its `End`.
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

/// An attribute as written: lexical name and still-escaped value.
#[derive(Debug)]
struct RawAttr<'a> {
    name: &'a str,
    raw: &'a str,
    // Byte offset of `raw` in the input, for error positions.
    at: usize,
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

    /// The winning binding for `prefix` and the depth it was declared at.
    fn resolve(&self, prefix: &str) -> Option<(usize, &str)> {
        self.entries
            .iter()
            .rev()
            .find(|(_, p, _)| *p == prefix)
            .map(|(depth, _, uri)| (*depth, uri.as_ref()))
    }
}

/// A pull parser over an in-memory document.
///
/// Produces a stream of [`XmlEvent`]s with namespaces resolved. Rejects
/// DTDs and external entities by construction, and enforces a maximum
/// element depth of [`MAX_DEPTH`] (the secure defaults for middleware that
/// parses messages off the wire — unbounded depth lets a hostile document
/// overflow the stack of tree-building consumers).
///
/// ```
/// use wsg_xml::{XmlReader, XmlEvent};
///
/// # fn main() -> Result<(), wsg_xml::XmlError> {
/// let mut reader = XmlReader::new("<a xmlns='urn:x'><b>hi</b></a>");
/// let first = reader.next_event()?;
/// assert!(first.is_start_of(Some("urn:x"), "a"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct XmlReader<'a> {
    input: &'a str,
    pos: usize,
    scope: Bindings<'a>,
    // Lexical names of the open elements, for close-tag matching.
    open: Vec<&'a str>,
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

    /// Pull the next event.
    ///
    /// # Errors
    ///
    /// Returns an [`XmlError`] on malformed input; the reader should not be
    /// used further after an error.
    pub fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        Ok(match self.next_token()? {
            Token::Declaration(data) => XmlEvent::Declaration {
                version: pseudo_attr(data, "version").unwrap_or_else(|| "1.0".to_string()),
                encoding: pseudo_attr(data, "encoding"),
            },
            Token::Pi { target, data } => XmlEvent::ProcessingInstruction {
                target: target.to_string(),
                data: data.to_string(),
            },
            Token::Comment(text) => XmlEvent::Comment(text.to_string()),
            Token::CData(text) => XmlEvent::CData(text.to_string()),
            Token::Text { raw, at } => XmlEvent::Text(unescape(raw, at)?.into_owned()),
            Token::Start { empty, .. } => {
                let (name, attributes) = self.start_tag();
                XmlEvent::StartElement { name, attributes, empty }
            }
            Token::End { lexical } => {
                let name = self.qname(lexical, true);
                self.close_element();
                XmlEvent::EndElement { name }
            }
            Token::Eof => XmlEvent::Eof,
        })
    }

    /// Pull the next event without copying it: the zero-allocation form
    /// of [`next_event`](Self::next_event), for consumers that compare
    /// names and keep at most a few pieces of text.
    ///
    /// # Errors
    ///
    /// Exactly the error `next_event` would have raised.
    pub fn next_raw(&mut self) -> Result<RawEvent<'a>, XmlError> {
        Ok(match self.next_token()? {
            Token::Start { .. } => RawEvent::Start,
            Token::End { .. } => {
                self.close_element();
                RawEvent::End
            }
            Token::Text { raw, at } => RawEvent::Text(unescape(raw, at)?),
            Token::CData(text) => RawEvent::Text(Cow::Borrowed(text)),
            Token::Eof => RawEvent::Eof,
            Token::Declaration(_) | Token::Pi { .. } | Token::Comment(_) => RawEvent::Markup,
        })
    }

    /// Owned name and attributes (namespace declarations excluded) of the
    /// start tag last read — what [`XmlEvent::StartElement`] carries.
    pub(crate) fn start_tag(&self) -> (QName, Vec<Attribute>) {
        let attributes = self
            .attrs
            .iter()
            .filter(|attr| declared_prefix(attr.name).is_none())
            .map(|attr| Attribute {
                // Per the namespaces spec, unprefixed attributes are
                // in no namespace (the default does not apply).
                name: self.qname(attr.name, false),
                value: checked_value(attr).into_owned(),
            })
            .collect();
        (self.element_qname(), attributes)
    }

    /// Resolved namespace and local name of the innermost open element —
    /// after a [`RawEvent::Start`], the element just started. The local
    /// name is a slice of the input, and so is the namespace unless its
    /// declaration needed a reference resolved.
    pub fn element_name(&self) -> (Option<&str>, &'a str) {
        let lexical = self.open.last().copied().unwrap_or_default();
        let (prefix, local) = QName::split_lexical(lexical);
        let uri = self.scope.resolve(prefix.unwrap_or("")).map(|(_, uri)| uri);
        (uri.filter(|uri| !uri.is_empty()), local)
    }

    /// [`element_name`](Self::element_name) as an owned [`QName`].
    pub fn element_qname(&self) -> QName {
        self.qname(self.open.last().copied().unwrap_or_default(), true)
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
                && prefix.and_then(|p| self.scope.resolve(p)).map(|(_, uri)| uri) == ns
        })?;
        Some(checked_value(attr))
    }

    /// The character data directly inside the innermost open element —
    /// what [`Element::text`](crate::Element::text) returns for its tree:
    /// text and CDATA runs concatenated, child elements skipped over —
    /// consuming through the element's end tag. Borrowed when it is one
    /// run that needed no reference resolved.
    ///
    /// # Errors
    ///
    /// Exactly the error `next_event` would have raised in the subtree.
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
    /// [`XmlEvent::StartElement`], past that element's whole subtree —
    /// enforcing every rule [`next_event`](Self::next_event) enforces
    /// (it drives the same tokenizer) while building no event, name or
    /// text: the fast path for subtrees a consumer only needs to frame.
    /// With no element open it does nothing.
    ///
    /// # Errors
    ///
    /// Exactly the error `next_event` would have raised in the subtree.
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        let target = self.open.len();
        if target == 0 {
            return Ok(());
        }
        loop {
            match self.next_token()? {
                Token::Text { raw, at } => {
                    cov!();
                    check_refs(raw, at)?;
                }
                Token::End { .. } => {
                    cov!();
                    self.close_element();
                    if self.open.len() < target {
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
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
            match self.next_token()? {
                Token::Eof => return Ok(()),
                Token::Comment(_) | Token::Pi { .. } => {}
                _ => {
                    return Err(self.err(XmlErrorKind::Malformed(
                        "content after root element".into(),
                    )))
                }
            }
        }
    }

    /// The resolved name for a lexical one the tokenizer already accepted
    /// (so every prefix is bound). `element`: the default namespace
    /// applies to unprefixed element names, never to attributes.
    fn qname(&self, lexical: &str, element: bool) -> QName {
        let (prefix, local) = QName::split_lexical(lexical);
        match prefix {
            Some(p) => {
                let uri = self.scope.resolve(p).map_or("", |(_, uri)| uri);
                QName::with_ns(uri, local).with_prefix(p)
            }
            None => match self.scope.resolve("").filter(|_| element) {
                Some((_, uri)) if !uri.is_empty() => QName::with_ns(uri, local),
                _ => QName::new(local),
            },
        }
    }

    /// Leave the element whose `End` token was just handled.
    fn close_element(&mut self) {
        self.open.pop();
        self.scope.pop_scope();
    }

    fn next_token(&mut self) -> Result<Token<'a>, XmlError> {
        if self.pending_end {
            cov!();
            self.pending_end = false;
            let lexical = self.open.last().copied().unwrap_or_default();
            return Ok(Token::End { lexical });
        }
        if self.finished {
            cov!();
            return Ok(Token::Eof);
        }
        if self.pos >= self.input.len() {
            cov!();
            return self.at_eof();
        }

        let rest = &self.input[self.pos..];
        if rest.starts_with('<') {
            cov!();
            self.parse_markup()
        } else {
            cov!();
            self.parse_text()
        }
    }

    fn at_eof(&mut self) -> Result<Token<'a>, XmlError> {
        if let Some(lexical) = self.open.last() {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed(format!("unclosed element <{lexical}>")),
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

    fn parse_text(&mut self) -> Result<Token<'a>, XmlError> {
        let start = self.pos;
        let rest = &self.input[start..];
        let end = rest.find('<').map(|i| start + i).unwrap_or(self.input.len());
        let raw = &self.input[start..end];
        self.pos = end;
        if self.open.is_empty() {
            // Only whitespace is allowed outside the root element.
            if raw.trim().is_empty() {
                cov!();
                return if self.pos >= self.input.len() {
                    self.at_eof()
                } else {
                    self.next_token()
                };
            }
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed("character data outside root element".into()),
                start,
            ));
        }
        if raw.contains("]]>") {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed("']]>' not allowed in character data".into()),
                start,
            ));
        }
        cov!();
        Ok(Token::Text { raw, at: start })
    }

    fn parse_markup(&mut self) -> Result<Token<'a>, XmlError> {
        let rest = &self.input[self.pos..];
        if let Some(r) = rest.strip_prefix("<?") {
            cov!();
            return self.parse_pi(r);
        }
        if rest.starts_with("<!--") {
            cov!();
            return self.parse_comment();
        }
        if rest.starts_with("<![CDATA[") {
            cov!();
            return self.parse_cdata();
        }
        if rest.starts_with("<!") {
            cov!();
            return Err(self.err(XmlErrorKind::Unsupported(
                "DTD / declaration markup ('<!') is not supported".into(),
            )));
        }
        if rest.starts_with("</") {
            cov!();
            return self.parse_end_tag();
        }
        cov!();
        self.parse_start_tag()
    }

    fn parse_pi(&mut self, after: &'a str) -> Result<Token<'a>, XmlError> {
        let close = after
            .find("?>")
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let content = &after[..close];
        let consumed = 2 + close + 2;
        let (target, data) = match content.find(|c: char| c.is_whitespace()) {
            Some(i) => (&content[..i], content[i..].trim_start()),
            None => (content, ""),
        };
        let start_pos = self.pos;
        self.pos += consumed;
        if target.eq_ignore_ascii_case("xml") {
            if start_pos != 0 {
                cov!();
                return Err(XmlError::new(
                    XmlErrorKind::Malformed("xml declaration not at document start".into()),
                    start_pos,
                ));
            }
            cov!();
            return Ok(Token::Declaration(data));
        }
        Ok(Token::Pi { target, data })
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
        self.pos += 4 + close + 3;
        Ok(Token::Comment(text))
    }

    fn parse_cdata(&mut self) -> Result<Token<'a>, XmlError> {
        if self.open.is_empty() {
            cov!();
            return Err(self.err(XmlErrorKind::Malformed(
                "CDATA outside root element".into(),
            )));
        }
        cov!();
        let body = &self.input[self.pos + 9..];
        let close = body
            .find("]]>")
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        self.pos += 9 + close + 3;
        Ok(Token::CData(&body[..close]))
    }

    fn parse_end_tag(&mut self) -> Result<Token<'a>, XmlError> {
        let tag_start = self.pos;
        let body = &self.input[self.pos + 2..];
        let close = body
            .find('>')
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let lexical = body[..close].trim_end();
        self.pos += 2 + close + 1;
        let Some(&open_lexical) = self.open.last() else {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::Malformed(format!("close tag </{lexical}> with no open element")),
                tag_start,
            ));
        };
        if open_lexical != lexical {
            cov!();
            return Err(XmlError::new(
                XmlErrorKind::MismatchedTag {
                    expected: open_lexical.to_string(),
                    found: lexical.to_string(),
                },
                tag_start,
            ));
        }
        cov!();
        Ok(Token::End { lexical })
    }

    fn parse_start_tag(&mut self) -> Result<Token<'a>, XmlError> {
        let tag_start = self.pos;
        self.pos += 1; // consume '<'
        let lexical = self.read_name()?;
        if validate_qname(lexical).is_err() {
            cov!();
            return Err(XmlError::new(XmlErrorKind::InvalidName(lexical.to_string()), tag_start));
        }
        self.attrs.clear();
        let empty;
        loop {
            self.skip_whitespace();
            let rest = &self.input[self.pos..];
            if rest.starts_with("/>") {
                cov!();
                self.pos += 2;
                empty = true;
                break;
            }
            if rest.starts_with('>') {
                cov!();
                self.pos += 1;
                empty = false;
                break;
            }
            if rest.is_empty() {
                cov!();
                return Err(self.err(XmlErrorKind::UnexpectedEof));
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
        }

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
            let uri = attr_value(attr)?;
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

        // Depth-0 bindings never move the watermark.
        let mut watermark = self.binding_watermark;
        let mut consult = |depth: usize| {
            if depth > 0 {
                watermark = watermark.min(depth);
            }
        };
        let undeclared = |prefix: &str| {
            XmlError::new(XmlErrorKind::UndeclaredPrefix(prefix.to_string()), tag_start)
        };
        match QName::split_lexical(lexical).0 {
            Some(prefix) => consult(self.scope.resolve(prefix).ok_or_else(|| undeclared(prefix))?.0),
            None => match self.scope.resolve("") {
                Some((depth, uri)) if !uri.is_empty() => consult(depth),
                _ => {}
            },
        }
        for attr in &self.attrs {
            if declared_prefix(attr.name).is_some() {
                continue;
            }
            if let Some(prefix) = QName::split_lexical(attr.name).0 {
                let (depth, _) = self.scope.resolve(prefix).ok_or_else(|| {
                    cov!();
                    undeclared(prefix)
                })?;
                consult(depth);
            }
        }
        self.binding_watermark = watermark;

        self.open.push(lexical);
        self.pending_end = empty;
        cov!();
        Ok(Token::Start { empty })
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = &self.input[self.pos..];
        let mut chars = rest.char_indices();
        match chars.next() {
            Some((_, c)) if is_name_start(c) => {}
            Some((_, c)) => {
                cov!();
                return Err(self.err(XmlErrorKind::InvalidName(c.to_string())));
            }
            None => {
                cov!();
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        }
        let end = chars
            .find(|&(_, c)| !is_name_char(c))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        self.pos += end;
        Ok(&rest[..end])
    }

    fn read_attribute(&mut self) -> Result<RawAttr<'a>, XmlError> {
        let name = self.read_name()?;
        if validate_qname(name).is_err() {
            cov!();
            return Err(self.err(XmlErrorKind::InvalidName(name.to_string())));
        }
        self.skip_whitespace();
        if !self.input[self.pos..].starts_with('=') {
            cov!();
            return Err(self.err(XmlErrorKind::Malformed(format!(
                "expected '=' after attribute '{name}'"
            ))));
        }
        self.pos += 1;
        self.skip_whitespace();
        let rest = &self.input[self.pos..];
        let quote = match rest.chars().next() {
            Some(q @ ('"' | '\'')) => q,
            Some(c) => {
                cov!();
                return Err(self.err(XmlErrorKind::Malformed(format!(
                    "attribute value must be quoted, found '{c}'"
                ))));
            }
            None => {
                cov!();
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        };
        let body = &rest[1..];
        let close = body
            .find(quote)
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let raw = &body[..close];
        if raw.contains('<') {
            cov!();
            return Err(self.err(XmlErrorKind::Malformed(
                "'<' not allowed in attribute value".into(),
            )));
        }
        let at = self.pos + 1;
        self.pos += 1 + close + 1;
        check_refs(raw, at)?;
        Ok(RawAttr { name, raw, at })
    }

    fn skip_whitespace(&mut self) {
        let rest = &self.input[self.pos..];
        let skip = rest.len() - rest.trim_start().len();
        self.pos += skip;
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
fn attr_value<'a>(attr: &RawAttr<'a>) -> Result<Cow<'a, str>, XmlError> {
    let value = unescape(attr.raw, attr.at)?;
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
fn checked_value<'a>(attr: &RawAttr<'a>) -> Cow<'a, str> {
    attr_value(attr).expect("references were checked when the tag was tokenized")
}

fn pseudo_attr(data: &str, name: &str) -> Option<String> {
    let idx = data.find(name)?;
    let rest = data[idx + name.len()..].trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let quote = rest.chars().next()?;
    if quote != '"' && quote != '\'' {
        return None;
    }
    let body = &rest[1..];
    let end = body.find(quote)?;
    Some(body[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    fn events(input: &str) -> Vec<XmlEvent> {
        let mut reader = XmlReader::new(input);
        let mut out = Vec::new();
        loop {
            let ev = reader.next_event().expect("parse error");
            let eof = ev == XmlEvent::Eof;
            out.push(ev);
            if eof {
                return out;
            }
        }
    }

    #[test]
    fn simple_document() {
        let evs = events("<a><b>text</b></a>");
        assert_eq!(evs.len(), 6);
        assert!(evs[0].is_start_of(None, "a"));
        assert!(evs[1].is_start_of(None, "b"));
        assert_eq!(evs[2], XmlEvent::Text("text".into()));
        assert!(evs[3].is_end_of(None, "b"));
        assert!(evs[4].is_end_of(None, "a"));
    }

    #[test]
    fn self_closing_emits_end() {
        let evs = events("<a/>");
        assert!(matches!(&evs[0], XmlEvent::StartElement { empty: true, .. }));
        assert!(evs[1].is_end_of(None, "a"));
    }

    #[test]
    fn declaration_parsed() {
        let evs = events("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
        assert_eq!(
            evs[0],
            XmlEvent::Declaration { version: "1.0".into(), encoding: Some("UTF-8".into()) }
        );
    }

    #[test]
    fn default_namespace_applies_to_elements_not_attrs() {
        let evs = events("<a xmlns=\"urn:x\" id=\"1\"><b/></a>");
        match &evs[0] {
            XmlEvent::StartElement { name, attributes, .. } => {
                assert_eq!(name.namespace(), Some("urn:x"));
                assert_eq!(attributes[0].name.namespace(), None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(evs[1].is_start_of(Some("urn:x"), "b"));
    }

    #[test]
    fn prefixed_namespaces_resolve_and_shadow() {
        let evs = events("<p:a xmlns:p=\"urn:one\"><p:a xmlns:p=\"urn:two\"/></p:a>");
        assert!(evs[0].is_start_of(Some("urn:one"), "a"));
        assert!(evs[1].is_start_of(Some("urn:two"), "a"));
        assert!(evs[2].is_end_of(Some("urn:two"), "a"));
        assert!(evs[3].is_end_of(Some("urn:one"), "a"));
    }

    #[test]
    fn undeclared_prefix_rejected() {
        let err = XmlReader::new("<p:a/>").next_event().unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UndeclaredPrefix(p) if p == "p"));
    }

    #[test]
    fn mismatched_close_rejected() {
        let mut r = XmlReader::new("<a><b></a></b>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        let err = r.next_event().unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_rejected() {
        let mut r = XmlReader::new("<a>");
        r.next_event().unwrap();
        assert!(r.next_event().is_err());
    }

    #[test]
    fn multiple_roots_rejected() {
        let mut r = XmlReader::new("<a/><b/>");
        r.next_event().unwrap();
        r.next_event().unwrap(); // synthetic end of <a/>
        assert!(r.next_event().is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        let mut r = XmlReader::new("hello<a/>");
        assert!(r.next_event().is_err());
    }

    #[test]
    fn whitespace_outside_root_ok() {
        let evs = events("  <a/>  ");
        assert!(evs[0].is_start_of(None, "a"));
        assert_eq!(evs.last(), Some(&XmlEvent::Eof));
    }

    #[test]
    fn cdata_passes_through_verbatim() {
        let evs = events("<a><![CDATA[<raw> & stuff]]></a>");
        assert_eq!(evs[1], XmlEvent::CData("<raw> & stuff".into()));
    }

    #[test]
    fn comments_and_pis() {
        let evs = events("<!-- hi --><a><?pi some data?></a>");
        assert_eq!(evs[0], XmlEvent::Comment(" hi ".into()));
        assert_eq!(
            evs[2],
            XmlEvent::ProcessingInstruction { target: "pi".into(), data: "some data".into() }
        );
    }

    #[test]
    fn dtd_rejected() {
        let mut r = XmlReader::new("<!DOCTYPE a><a/>");
        let err = r.next_event().unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::Unsupported(_)));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let evs = events("<a x=\"1 &lt; 2\">&amp;&#65;</a>");
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].value, "1 < 2");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(evs[1], XmlEvent::Text("&A".into()));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut r = XmlReader::new("<a x=\"1\" x=\"2\"/>");
        assert!(matches!(
            r.next_event().unwrap_err().kind(),
            XmlErrorKind::DuplicateAttribute(_)
        ));
    }

    #[test]
    fn attribute_value_newline_normalised() {
        let evs = events("<a x=\"l1\nl2\"/>");
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].value, "l1 l2");
            }
            other => panic!("unexpected {other:?}"),
        }
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
        let mut events = XmlReader::new("<a>x<b></c></a>");
        let error = std::iter::repeat_with(|| events.next_event()).find_map(Result::err);
        assert_eq!(r.direct_text().err(), error);
        let mut r = XmlReader::new("<a>x");
        r.next_raw().unwrap();
        assert!(r.direct_text().is_err());
    }

    #[test]
    fn raw_events_mirror_owned_events() {
        let doc = r#"<?xml version="1.0"?><!-- c --><p:a xmlns:p="urn:p" xmlns="urn:d" k="v &lt; w">
            t &#x26; u<b/><![CDATA[<raw>]]><?pi data?><p:c p:k="1">x</p:c></p:a>"#;
        let (mut raw, mut owned) = (XmlReader::new(doc), XmlReader::new(doc));
        loop {
            let event = owned.next_event().unwrap();
            let got = raw.next_raw().unwrap();
            match event {
                XmlEvent::StartElement { name, attributes, .. } => {
                    assert_eq!(got, RawEvent::Start);
                    assert_eq!(raw.element_qname(), name);
                    assert_eq!(raw.element_name(), (name.namespace(), name.local()));
                    assert_eq!(raw.start_tag(), (name, attributes.clone()));
                    for a in &attributes {
                        let value = raw.attribute(a.name.namespace(), a.name.local());
                        assert_eq!(value.as_deref(), Some(a.value.as_str()));
                    }
                }
                XmlEvent::EndElement { .. } => assert_eq!(got, RawEvent::End),
                XmlEvent::Text(text) | XmlEvent::CData(text) => {
                    assert_eq!(got, RawEvent::Text(text.into()));
                }
                XmlEvent::Eof => {
                    assert_eq!(got, RawEvent::Eof);
                    break;
                }
                _ => assert_eq!(got, RawEvent::Markup),
            }
            assert_eq!(raw.position(), owned.position());
        }
        // Text that needed nothing resolved is a slice of the input.
        let mut r = XmlReader::new("<a>plain<![CDATA[&amp;]]>x &amp; y</a>");
        r.next_raw().unwrap();
        assert!(matches!(r.next_raw().unwrap(), RawEvent::Text(Cow::Borrowed("plain"))));
        assert!(matches!(r.next_raw().unwrap(), RawEvent::Text(Cow::Borrowed("&amp;"))));
        assert!(matches!(r.next_raw().unwrap(), RawEvent::Text(Cow::Owned(text)) if text == "x & y"));
        // And the two readers fail alike.
        for bad in ["<a><b></a>", "<a>&bogus;</a>", "<a x='1' x='2'/>", "<p:a/>", "<a>"] {
            let (mut raw, mut owned) = (XmlReader::new(bad), XmlReader::new(bad));
            let raw_error = std::iter::repeat_with(|| raw.next_raw()).find_map(Result::err);
            let owned_error = std::iter::repeat_with(|| owned.next_event()).find_map(Result::err);
            assert_eq!(raw_error, owned_error, "{bad}");
            assert!(raw_error.is_some(), "{bad}");
        }
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
        let mut reader = XmlReader::new(&deep);
        let result = std::iter::from_fn(|| match reader.next_event() {
            Ok(XmlEvent::Eof) => None,
            Ok(ev) => Some(Ok(ev)),
            Err(e) => Some(Err(e)),
        })
        .find_map(|r| r.err());
        assert!(result.is_some(), "depth limit must trigger an error");
        // And the tree builder must therefore be safe too.
        assert!(crate::tree::Element::parse(&deep).is_err());
    }

    #[test]
    fn eof_is_idempotent() {
        let mut r = XmlReader::new("<a/>");
        while r.next_event().unwrap() != XmlEvent::Eof {}
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
    }

    /// Read to the root start tag, leave the root by `skip_element` or by
    /// building its tree, and report where that ended (or the error).
    fn leave_root(input: &str, skip: bool) -> Result<usize, XmlError> {
        let mut reader = XmlReader::new(input);
        loop {
            if let XmlEvent::StartElement { name, attributes, .. } = reader.next_event()? {
                if skip {
                    reader.skip_element()?;
                } else {
                    crate::tree::Element::from_start_event(&mut reader, name, attributes)?;
                }
                let end = reader.position();
                reader.finish()?;
                return Ok(end);
            }
        }
    }

    #[test]
    fn skip_element_agrees_with_tree_building_on_verdict_error_and_offset() {
        for input in [
            "<a/>",
            "<?xml version=\"1.0\"?><a x=\"1\"><b>t &amp; u</b><![CDATA[<raw>]]><!-- c --><?pi d?></a> ",
            "<p:a xmlns:p=\"urn:p\"><p:b p:k=\"v\"/></p:a>",
            // Every rule the event layer enforces, broken once.
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
        r.next_event().unwrap(); // <a>
        r.next_event().unwrap(); // <b>
        r.skip_element().unwrap();
        assert_eq!(r.depth(), 1);
        assert!(r.next_event().unwrap().is_start_of(None, "d"));
        r.skip_element().unwrap(); // self-closing: only the synthetic end
        assert!(r.next_event().unwrap().is_end_of(None, "a"));
        r.skip_element().unwrap(); // nothing open: a no-op
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
    }

    #[test]
    fn skipping_moves_the_binding_watermark_like_reading() {
        let mut r = XmlReader::new("<r xmlns:o=\"urn:o\"><a xmlns:i=\"urn:i\"><i:x/></a><b><o:x/></b></r>");
        r.next_event().unwrap(); // <r>
        r.next_event().unwrap(); // <a>
        r.reset_binding_watermark();
        r.skip_element().unwrap();
        assert!(r.binding_watermark() > 1, "<a> resolves i: from its own declaration");
        r.next_event().unwrap(); // <b>
        r.reset_binding_watermark();
        r.skip_element().unwrap();
        assert_eq!(r.binding_watermark(), 1, "<b> leans on the root's o: binding");
        assert_eq!(r.in_scope_bindings(), [("o".to_string(), "urn:o".to_string())]);
    }

    #[test]
    fn a_fragment_reads_in_the_scope_it_was_cut_from() {
        let outer = [("o".to_string(), "urn:o".to_string()), (String::new(), "urn:d".to_string())];
        let mut r = XmlReader::with_bindings("<o:x><y/></o:x>", &outer);
        assert!(r.next_event().unwrap().is_start_of(Some("urn:o"), "x"));
        assert!(r.next_event().unwrap().is_start_of(Some("urn:d"), "y"));
        assert_eq!(r.binding_watermark(), usize::MAX, "outer bindings sit at depth 0");
        assert!(XmlReader::new("<o:x/>").next_event().is_err());
    }
}
