//! The token layer as it was before it read bytes: a `char`-at-a-time
//! reader kept as the oracle of the differential test in
//! `reader::differential`. Its grammar, error kinds and error offsets are
//! the ones [`super::XmlReader`] must reproduce, with one intended
//! difference: here whitespace is Unicode's `White_Space`, there XML's
//! `S`. No `cov!()` here — the fuzzer's edge map is the live reader's.
//!
//! The code is the old reader's, with what the test never calls left
//! out: the payloads of the markup tokens, the owned-event stream the
//! reader no longer has, fragment bindings, and the word-at-a-time `&`
//! search (a plain one finds the same byte). The reference and name grammar of `crate::escape` it called is
//! copied below as it was.
//!
//! Test-only. Do not "fix" this code: it is the specification the byte
//! layer is checked against, bugs and all. One rule was added to it on
//! purpose, the same as to the reader: a character XML 1.0's `Char`
//! production leaves out is rejected wherever it stands in text, an
//! attribute value, CDATA, a comment or a processing instruction
//! (`not_char`).

use std::borrow::Cow;

use super::RawEvent;
use crate::error::{XmlError, XmlErrorKind};
use crate::escape::{is_name_char, is_name_start, is_xml_char};
use crate::name::QName;

use super::MAX_DEPTH;

enum Token<'a> {
    Declaration,
    Pi,
    Comment,
    CData(&'a str),
    Text { raw: &'a str, at: usize },
    Start,
    End,
    Eof,
}

#[derive(Debug)]
struct RawAttr<'a> {
    name: &'a str,
    raw: &'a str,
    at: usize,
}

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

    fn resolve(&self, prefix: &str) -> Option<(usize, &str)> {
        self.entries
            .iter()
            .rev()
            .find(|(_, p, _)| *p == prefix)
            .map(|(depth, _, uri)| (*depth, uri.as_ref()))
    }
}

/// The reference pull parser.
#[derive(Debug)]
pub(super) struct XmlReader<'a> {
    input: &'a str,
    pos: usize,
    scope: Bindings<'a>,
    open: Vec<&'a str>,
    attrs: Vec<RawAttr<'a>>,
    pending_end: bool,
    seen_root: bool,
    finished: bool,
    binding_watermark: usize,
}

impl<'a> XmlReader<'a> {
    pub(super) fn new(input: &'a str) -> Self {
        let entries = vec![(0, "xml", Cow::Borrowed(crate::XML_NS))];
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

    pub(super) fn position(&self) -> usize {
        self.pos
    }

    pub(super) fn depth(&self) -> usize {
        self.open.len()
    }

    pub(super) fn binding_watermark(&self) -> usize {
        self.binding_watermark
    }

    pub(super) fn bindings(&self) -> impl Iterator<Item = (&str, &str)> {
        self.scope
            .entries
            .iter()
            .filter(|(depth, _, _)| *depth > 0)
            .map(|(_, prefix, uri)| (*prefix, uri.as_ref()))
    }

    pub(super) fn next_raw(&mut self) -> Result<RawEvent<'a>, XmlError> {
        Ok(match self.next_token()? {
            Token::Start => RawEvent::Start,
            Token::End => {
                self.close_element();
                RawEvent::End
            }
            Token::Text { raw, at } => RawEvent::Text(unescape(raw, at)?),
            Token::CData(text) => RawEvent::Text(Cow::Borrowed(text)),
            Token::Eof => RawEvent::Eof,
            Token::Declaration | Token::Pi | Token::Comment => RawEvent::Markup,
        })
    }

    pub(super) fn skip_element(&mut self) -> Result<(), XmlError> {
        let target = self.open.len();
        if target == 0 {
            return Ok(());
        }
        loop {
            match self.next_token()? {
                Token::Text { raw, at } => {
                    check_refs(raw, at)?;
                }
                Token::End => {
                    self.close_element();
                    if self.open.len() < target {
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
    }

    pub(super) fn finish(&mut self) -> Result<(), XmlError> {
        loop {
            match self.next_token()? {
                Token::Eof => return Ok(()),
                Token::Comment | Token::Pi => {}
                _ => {
                    return Err(self.err(XmlErrorKind::Malformed(
                        "content after root element".into(),
                    )))
                }
            }
        }
    }

    pub(super) fn start_tag(&self) -> (QName, Vec<(QName, String)>) {
        let attributes = self
            .attrs
            .iter()
            .filter(|attr| declared_prefix(attr.name).is_none())
            .map(|attr| (self.qname(attr.name, false), checked_value(attr).into_owned()))
            .collect();
        (
            self.qname(self.open.last().copied().unwrap_or_default(), true),
            attributes,
        )
    }

    pub(super) fn element_name(&self) -> (Option<&str>, &'a str) {
        let lexical = self.open.last().copied().unwrap_or_default();
        let (prefix, local) = QName::split_lexical(lexical);
        let uri = self.scope.resolve(prefix.unwrap_or("")).map(|(_, uri)| uri);
        (uri.filter(|uri| !uri.is_empty()), local)
    }

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

    fn close_element(&mut self) {
        self.open.pop();
        self.scope.pop_scope();
    }

    fn next_token(&mut self) -> Result<Token<'a>, XmlError> {
        if self.pending_end {
            self.pending_end = false;
            return Ok(Token::End);
        }
        if self.finished {
            return Ok(Token::Eof);
        }
        if self.pos >= self.input.len() {
            return self.at_eof();
        }

        let rest = &self.input[self.pos..];
        if rest.starts_with('<') {
            self.parse_markup()
        } else {
            self.parse_text()
        }
    }

    fn at_eof(&mut self) -> Result<Token<'a>, XmlError> {
        if let Some(lexical) = self.open.last() {
            return Err(XmlError::new(
                XmlErrorKind::Malformed(format!("unclosed element <{lexical}>")),
                self.pos,
            ));
        }
        if !self.seen_root {
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
        let end = rest
            .find('<')
            .map(|i| start + i)
            .unwrap_or(self.input.len());
        let raw = &self.input[start..end];
        self.pos = end;
        if self.open.is_empty() {
            if raw.trim().is_empty() {
                return if self.pos >= self.input.len() {
                    self.at_eof()
                } else {
                    self.next_token()
                };
            }
            return Err(XmlError::new(
                XmlErrorKind::Malformed("character data outside root element".into()),
                start,
            ));
        }
        if raw.contains("]]>") {
            return Err(XmlError::new(
                XmlErrorKind::Malformed("']]>' not allowed in character data".into()),
                start,
            ));
        }
        not_char(raw, start)?;
        Ok(Token::Text { raw, at: start })
    }

    fn parse_markup(&mut self) -> Result<Token<'a>, XmlError> {
        let rest = &self.input[self.pos..];
        if let Some(r) = rest.strip_prefix("<?") {
            return self.parse_pi(r);
        }
        if rest.starts_with("<!--") {
            return self.parse_comment();
        }
        if rest.starts_with("<![CDATA[") {
            return self.parse_cdata();
        }
        if rest.starts_with("<!") {
            return Err(self.err(XmlErrorKind::Unsupported(
                "DTD / declaration markup ('<!') is not supported".into(),
            )));
        }
        if rest.starts_with("</") {
            return self.parse_end_tag();
        }
        self.parse_start_tag()
    }

    fn parse_pi(&mut self, after: &'a str) -> Result<Token<'a>, XmlError> {
        let close = after
            .find("?>")
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let content = &after[..close];
        let consumed = 2 + close + 2;
        let target = match content.find(|c: char| c.is_whitespace()) {
            Some(i) => &content[..i],
            None => content,
        };
        let start_pos = self.pos;
        self.pos += consumed;
        not_char(content, start_pos + 2)?;
        if target.eq_ignore_ascii_case("xml") {
            if start_pos != 0 {
                return Err(XmlError::new(
                    XmlErrorKind::Malformed("xml declaration not at document start".into()),
                    start_pos,
                ));
            }
            return Ok(Token::Declaration);
        }
        Ok(Token::Pi)
    }

    fn parse_comment(&mut self) -> Result<Token<'a>, XmlError> {
        let body = &self.input[self.pos + 4..];
        let close = body
            .find("-->")
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let text = &body[..close];
        if text.contains("--") {
            return Err(self.err(XmlErrorKind::Malformed("'--' inside comment".into())));
        }
        not_char(text, self.pos + 4)?;
        self.pos += 4 + close + 3;
        Ok(Token::Comment)
    }

    fn parse_cdata(&mut self) -> Result<Token<'a>, XmlError> {
        if self.open.is_empty() {
            return Err(self.err(XmlErrorKind::Malformed("CDATA outside root element".into())));
        }
        let body = &self.input[self.pos + 9..];
        let close = body
            .find("]]>")
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        not_char(&body[..close], self.pos + 9)?;
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
            return Err(XmlError::new(
                XmlErrorKind::Malformed(format!("close tag </{lexical}> with no open element")),
                tag_start,
            ));
        };
        if open_lexical != lexical {
            return Err(XmlError::new(
                XmlErrorKind::MismatchedTag {
                    expected: open_lexical.to_string(),
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
        let lexical = self.read_name()?;
        if validate_qname(lexical).is_err() {
            return Err(XmlError::new(
                XmlErrorKind::InvalidName(lexical.to_string()),
                tag_start,
            ));
        }
        self.attrs.clear();
        let empty;
        loop {
            self.skip_whitespace();
            let rest = &self.input[self.pos..];
            if rest.starts_with("/>") {
                self.pos += 2;
                empty = true;
                break;
            }
            if rest.starts_with('>') {
                self.pos += 1;
                empty = false;
                break;
            }
            if rest.is_empty() {
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
            let attr = self.read_attribute()?;
            if self.attrs.iter().any(|seen| seen.name == attr.name) {
                return Err(XmlError::new(
                    XmlErrorKind::DuplicateAttribute(attr.name.to_string()),
                    tag_start,
                ));
            }
            self.attrs.push(attr);
        }

        if self.open.is_empty() {
            if self.seen_root {
                return Err(XmlError::new(
                    XmlErrorKind::Malformed("multiple root elements".into()),
                    tag_start,
                ));
            }
            self.seen_root = true;
        }
        if self.open.len() >= MAX_DEPTH {
            return Err(XmlError::new(
                XmlErrorKind::Malformed(format!("element depth exceeds {MAX_DEPTH}")),
                tag_start,
            ));
        }

        self.scope.depth += 1;
        for attr in &self.attrs {
            let Some(prefix) = declared_prefix(attr.name) else {
                continue;
            };
            let uri = attr_value(attr)?;
            if !prefix.is_empty() && uri.is_empty() {
                return Err(XmlError::new(
                    XmlErrorKind::Malformed(format!(
                        "cannot bind prefix '{prefix}' to empty namespace"
                    )),
                    tag_start,
                ));
            }
            self.scope.entries.push((self.scope.depth, prefix, uri));
        }

        let mut watermark = self.binding_watermark;
        let mut consult = |depth: usize| {
            if depth > 0 {
                watermark = watermark.min(depth);
            }
        };
        let undeclared = |prefix: &str| {
            XmlError::new(
                XmlErrorKind::UndeclaredPrefix(prefix.to_string()),
                tag_start,
            )
        };
        match QName::split_lexical(lexical).0 {
            Some(prefix) => consult(
                self.scope
                    .resolve(prefix)
                    .ok_or_else(|| undeclared(prefix))?
                    .0,
            ),
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
                let (depth, _) = self
                    .scope
                    .resolve(prefix)
                    .ok_or_else(|| undeclared(prefix))?;
                consult(depth);
            }
        }
        self.binding_watermark = watermark;

        self.open.push(lexical);
        self.pending_end = empty;
        Ok(Token::Start)
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = &self.input[self.pos..];
        let mut chars = rest.char_indices();
        match chars.next() {
            Some((_, c)) if is_name_start(c) => {}
            Some((_, c)) => {
                return Err(self.err(XmlErrorKind::InvalidName(c.to_string())));
            }
            None => {
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
            return Err(self.err(XmlErrorKind::InvalidName(name.to_string())));
        }
        self.skip_whitespace();
        if !self.input[self.pos..].starts_with('=') {
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
                return Err(self.err(XmlErrorKind::Malformed(format!(
                    "attribute value must be quoted, found '{c}'"
                ))));
            }
            None => {
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        };
        let body = &rest[1..];
        let close = body
            .find(quote)
            .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
        let raw = &body[..close];
        if raw.contains('<') {
            return Err(self.err(XmlErrorKind::Malformed(
                "'<' not allowed in attribute value".into(),
            )));
        }
        let at = self.pos + 1;
        not_char(raw, at)?;
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

/// Reject the first character of `text` (which starts at byte `at`) that
/// XML 1.0's `Char` production leaves out.
fn not_char(text: &str, at: usize) -> Result<(), XmlError> {
    match text.char_indices().find(|&(_, c)| !is_xml_char(c)) {
        Some((i, c)) => Err(XmlError::new(
            XmlErrorKind::Malformed(format!("character U+{:04X} not allowed", u32::from(c))),
            at + i,
        )),
        None => Ok(()),
    }
}

fn declared_prefix(attr_name: &str) -> Option<&str> {
    match attr_name.strip_prefix("xmlns")? {
        "" => Some(""),
        rest => rest.strip_prefix(':'),
    }
}

fn attr_value<'a>(attr: &RawAttr<'a>) -> Result<Cow<'a, str>, XmlError> {
    let value = unescape(attr.raw, attr.at)?;
    if !value.contains(['\t', '\n', '\r']) {
        return Ok(value);
    }
    Ok(Cow::Owned(
        value
            .chars()
            .map(|c| {
                if matches!(c, '\t' | '\n' | '\r') {
                    ' '
                } else {
                    c
                }
            })
            .collect(),
    ))
}

fn checked_value<'a>(attr: &RawAttr<'a>) -> Cow<'a, str> {
    attr_value(attr).expect("references were checked when the tag was tokenized")
}

// The reference and name grammar of `crate::escape` as the token layer
// above called it.

fn unescape(input: &str, base_offset: usize) -> Result<Cow<'_, str>, XmlError> {
    if find_amp(input.as_bytes()).is_none() {
        return Ok(Cow::Borrowed(input));
    }
    let mut out = String::with_capacity(input.len());
    scan_refs(input, base_offset, |clean, decoded| {
        out.push_str(clean);
        out.extend(decoded);
    })?;
    out.shrink_to_fit();
    Ok(Cow::Owned(out))
}

fn check_refs(input: &str, base_offset: usize) -> Result<(), XmlError> {
    scan_refs(input, base_offset, |_, _| {})
}

fn scan_refs(
    input: &str,
    base_offset: usize,
    mut emit: impl FnMut(&str, Option<char>),
) -> Result<(), XmlError> {
    const PREDEFINED: [(&str, char); 5] = [
        ("amp;", '&'),
        ("lt;", '<'),
        ("gt;", '>'),
        ("quot;", '"'),
        ("apos;", '\''),
    ];
    let mut rest = input;
    let mut offset = base_offset;
    while let Some(amp) = find_amp(rest.as_bytes()) {
        let after = &rest[amp + 1..];
        let predefined = PREDEFINED
            .iter()
            .find_map(|(name, c)| after.strip_prefix(name).map(|tail| (*c, tail)));
        let (decoded, tail) = match predefined {
            Some(hit) => hit,
            None => {
                let semi = after.find(';').ok_or_else(|| {
                    XmlError::new(
                        XmlErrorKind::Malformed("unterminated entity reference".into()),
                        offset + amp,
                    )
                })?;
                let name = &after[..semi];
                if !name.starts_with('#') {
                    return Err(XmlError::new(
                        XmlErrorKind::UnknownEntity(name.to_string()),
                        offset + amp,
                    ));
                }
                (parse_char_ref(name, offset + amp)?, &after[semi + 1..])
            }
        };
        emit(&rest[..amp], Some(decoded));
        offset += rest.len() - tail.len();
        rest = tail;
    }
    emit(rest, None);
    Ok(())
}

fn find_amp(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'&')
}

fn parse_char_ref(name: &str, position: usize) -> Result<char, XmlError> {
    let digits = &name[1..];
    let value = if let Some(hex) = digits
        .strip_prefix('x')
        .or_else(|| digits.strip_prefix('X'))
    {
        u32::from_str_radix(hex, 16)
    } else {
        digits.parse::<u32>()
    }
    .map_err(|_| {
        XmlError::new(
            XmlErrorKind::Malformed(format!("invalid character reference '&{name};'")),
            position,
        )
    })?;
    char::from_u32(value)
        .filter(|c| is_xml_char(*c))
        .ok_or_else(|| {
            XmlError::new(
                XmlErrorKind::Malformed(format!("character reference out of range '&{name};'")),
                position,
            )
        })
}

fn validate_qname(lexical: &str) -> Result<(), XmlError> {
    let invalid = || XmlError::new(XmlErrorKind::InvalidName(lexical.to_string()), 0);
    let (prefix, local) = match lexical.split_once(':') {
        Some((prefix, local)) => (Some(prefix), local),
        None => (None, lexical),
    };
    if local.contains(':') {
        return Err(invalid());
    }
    if let Some(prefix) = prefix {
        validate_name(prefix).map_err(|_| invalid())?;
    }
    validate_name(local).map_err(|_| invalid())
}

fn validate_name(name: &str) -> Result<(), XmlError> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if is_name_start(c) => {}
        _ => {
            return Err(XmlError::new(
                XmlErrorKind::InvalidName(name.to_string()),
                0,
            ));
        }
    }
    if chars.all(is_name_char) {
        Ok(())
    } else {
        Err(XmlError::new(
            XmlErrorKind::InvalidName(name.to_string()),
            0,
        ))
    }
}
