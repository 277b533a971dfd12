//! A streaming XML writer with namespace management.

use std::fmt::Write as _;

use crate::error::{XmlError, XmlErrorKind};
use crate::escape::{escape_attr_into, escape_text_into, validate_name};
use crate::name::{NamespaceScope, QName};

/// Streaming writer producing a well-formed document into a `String`.
///
/// Namespace declarations are emitted automatically: writing an element or
/// attribute whose [`QName`] carries a namespace that is not yet in scope
/// declares it on that element, using the name's suggested prefix when
/// available and a generated `ns{N}` prefix otherwise.
///
/// ```
/// use wsg_xml::{XmlWriter, QName};
///
/// # fn main() -> Result<(), wsg_xml::XmlError> {
/// let mut w = XmlWriter::new();
/// w.start_element(&QName::with_ns("urn:x", "root").with_prefix("x"))?;
/// w.text("hello")?;
/// w.end_element()?;
/// assert_eq!(w.finish()?, "<x:root xmlns:x=\"urn:x\">hello</x:root>");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct XmlWriter {
    out: String,
    scope: NamespaceScope,
    // Open-element lexical names live concatenated in `open_names`;
    // `open` holds each name's start offset. One growing arena instead of
    // one String allocation per nested element.
    open: Vec<usize>,
    open_names: String,
    // The current start tag is still open (attributes may be added).
    tag_open: bool,
    root_closed: bool,
    generated: usize,
    indent: Option<String>,
    // True when the last thing written inside the current element was
    // character data (suppresses indentation of the close tag).
    mixed: Vec<bool>,
    // Reusable scratch for qualified_buf: the lexical form of the name
    // being written and any xmlns declaration it needs.
    lex_buf: String,
    decl_buf: String,
}

impl Default for XmlWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl XmlWriter {
    /// A writer producing compact output.
    pub fn new() -> Self {
        XmlWriter {
            out: String::new(),
            scope: NamespaceScope::new(),
            open: Vec::new(),
            open_names: String::new(),
            tag_open: false,
            root_closed: false,
            generated: 0,
            indent: None,
            mixed: Vec::new(),
            lex_buf: String::new(),
            decl_buf: String::new(),
        }
    }

    /// A writer that serializes into `buf`, cleared first. [`finish`]
    /// returns the same allocation, so callers serializing many documents
    /// can round-trip one buffer and avoid a fresh `String` per document.
    ///
    /// [`finish`]: XmlWriter::finish
    pub fn new_into(mut buf: String) -> Self {
        buf.clear();
        let mut w = Self::new();
        w.out = buf;
        w
    }

    /// A writer that pretty-prints with the given indent unit.
    pub fn pretty(indent: &str) -> Self {
        let mut w = Self::new();
        w.indent = Some(indent.to_string());
        w
    }

    /// Emit the `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    ///
    /// # Errors
    ///
    /// Fails if any content was already written.
    pub fn declaration(&mut self) -> Result<(), XmlError> {
        if !self.out.is_empty() {
            return Err(self.misuse("declaration must be first"));
        }
        self.out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if self.indent.is_some() {
            self.out.push('\n');
        }
        Ok(())
    }

    /// Open an element.
    ///
    /// # Errors
    ///
    /// Fails on invalid names or writing a second root element.
    pub fn start_element(&mut self, name: &QName) -> Result<(), XmlError> {
        self.close_pending_tag(false)?;
        if self.open.is_empty() && self.root_closed {
            return Err(self.misuse("document already has a root element"));
        }
        self.newline_indent();
        self.scope.push_scope();
        self.qualified_buf(name, false)?;
        self.out.push('<');
        self.out.push_str(&self.lex_buf);
        self.out.push_str(&self.decl_buf);
        self.open.push(self.open_names.len());
        self.open_names.push_str(&self.lex_buf);
        self.tag_open = true;
        self.mixed.push(false);
        Ok(())
    }

    /// Add an attribute to the element just opened.
    ///
    /// # Errors
    ///
    /// Fails if no start tag is open (i.e. content has already been
    /// written), or the name is invalid.
    pub fn attribute(&mut self, name: &QName, value: &str) -> Result<(), XmlError> {
        if !self.tag_open {
            return Err(self.misuse("attribute written outside a start tag"));
        }
        self.qualified_buf(name, true)?;
        self.out.push_str(&self.decl_buf);
        self.out.push(' ');
        self.out.push_str(&self.lex_buf);
        self.out.push_str("=\"");
        escape_attr_into(&mut self.out, value);
        self.out.push('"');
        Ok(())
    }

    /// Explicitly declare a namespace prefix on the open element.
    ///
    /// # Errors
    ///
    /// Fails if no start tag is open.
    pub fn declare_namespace(&mut self, prefix: &str, uri: &str) -> Result<(), XmlError> {
        if !self.tag_open {
            return Err(self.misuse("namespace declaration outside a start tag"));
        }
        if !prefix.is_empty() {
            validate_name(prefix)?;
        }
        if self.scope.resolve(prefix) == Some(uri) {
            return Ok(()); // already in scope with the same meaning
        }
        self.scope.declare(prefix, uri);
        if prefix.is_empty() {
            self.out.push_str(" xmlns=\"");
        } else {
            self.out.push_str(" xmlns:");
            self.out.push_str(prefix);
            self.out.push_str("=\"");
        }
        escape_attr_into(&mut self.out, uri);
        self.out.push('"');
        Ok(())
    }

    /// Write character data (escaped).
    ///
    /// # Errors
    ///
    /// Fails outside the root element.
    pub fn text(&mut self, text: &str) -> Result<(), XmlError> {
        self.close_pending_tag(false)?;
        if self.open.is_empty() {
            return Err(self.misuse("text outside root element"));
        }
        if let Some(m) = self.mixed.last_mut() {
            *m = true;
        }
        escape_text_into(&mut self.out, text);
        Ok(())
    }

    /// Splice `xml` — one or more already-serialised, well-formed elements
    /// — in as content of the open element, byte for byte. The caller
    /// vouches for it: every prefix it uses must be declared inside it or
    /// bound in this writer's current scope with the same meaning.
    ///
    /// # Errors
    ///
    /// Fails outside the root element.
    pub fn raw(&mut self, xml: &str) -> Result<(), XmlError> {
        self.close_pending_tag(false)?;
        if self.open.is_empty() {
            return Err(self.misuse("raw content outside root element"));
        }
        if let Some(m) = self.mixed.last_mut() {
            *m = true;
        }
        self.out.push_str(xml);
        Ok(())
    }

    /// Run `write` and return exactly the bytes it appended (the open
    /// start tag is closed first), so a caller can keep the serialised
    /// form of content it will write again — see [`XmlWriter::raw`].
    ///
    /// # Errors
    ///
    /// Propagates the error `write` returns.
    pub fn capture(
        &mut self,
        write: impl FnOnce(&mut Self) -> Result<(), XmlError>,
    ) -> Result<&str, XmlError> {
        self.close_pending_tag(false)?;
        let start = self.out.len();
        write(self)?;
        Ok(&self.out[start..])
    }

    /// Write a CDATA section. The content must not contain `]]>`.
    ///
    /// # Errors
    ///
    /// Fails outside the root element or when content contains `]]>`.
    pub fn cdata(&mut self, text: &str) -> Result<(), XmlError> {
        self.close_pending_tag(false)?;
        if self.open.is_empty() {
            return Err(self.misuse("cdata outside root element"));
        }
        if text.contains("]]>") {
            return Err(self.misuse("']]>' inside cdata"));
        }
        if let Some(m) = self.mixed.last_mut() {
            *m = true;
        }
        // wsg_lint: allow(E2) — fmt::Write to a String is infallible
        let _ = write!(self.out, "<![CDATA[{text}]]>");
        Ok(())
    }

    /// Write a comment. Must not contain `--`.
    ///
    /// # Errors
    ///
    /// Fails when the comment contains `--`.
    pub fn comment(&mut self, text: &str) -> Result<(), XmlError> {
        if text.contains("--") {
            return Err(self.misuse("'--' inside comment"));
        }
        self.close_pending_tag(false)?;
        self.newline_indent();
        // wsg_lint: allow(E2) — fmt::Write to a String is infallible
        let _ = write!(self.out, "<!--{text}-->");
        Ok(())
    }

    /// Close the innermost open element.
    ///
    /// # Errors
    ///
    /// Fails if no element is open.
    pub fn end_element(&mut self) -> Result<(), XmlError> {
        if self.tag_open {
            // <a ...  />  — self-close
            self.out.push_str("/>");
            self.tag_open = false;
            if let Some(start) = self.open.pop() {
                self.open_names.truncate(start);
            }
            self.mixed.pop();
            self.scope.pop_scope();
        } else {
            let start = self
                .open
                .pop()
                .ok_or_else(|| self.misuse("end_element with no open element"))?;
            let was_mixed = self.mixed.pop().unwrap_or(false);
            if !was_mixed {
                self.newline_indent();
            }
            self.out.push_str("</");
            self.out.push_str(&self.open_names[start..]);
            self.out.push('>');
            self.open_names.truncate(start);
            self.scope.pop_scope();
        }
        if self.open.is_empty() {
            self.root_closed = true;
        }
        Ok(())
    }

    /// Finish the document and return the XML string.
    ///
    /// # Errors
    ///
    /// Fails if elements remain open or no root was written.
    pub fn finish(mut self) -> Result<String, XmlError> {
        if self.tag_open || !self.open.is_empty() {
            return Err(self.misuse("finish with unclosed elements"));
        }
        if !self.root_closed {
            return Err(self.misuse("finish with no root element"));
        }
        if self.indent.is_some() && !self.out.ends_with('\n') {
            self.out.push('\n');
        }
        Ok(self.out)
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    fn close_pending_tag(&mut self, _self_close: bool) -> Result<(), XmlError> {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
        Ok(())
    }

    fn newline_indent(&mut self) {
        if let Some(unit) = &self.indent {
            if !self.out.is_empty() {
                self.out.push('\n');
                let depth = self.open.len();
                for _ in 0..depth {
                    self.out.push_str(unit);
                }
            }
        }
    }

    /// Fill `lex_buf` with the lexical (possibly prefixed) form of `name`
    /// and `decl_buf` with the `xmlns` declaration text to splice into the
    /// open start tag when the namespace is not yet in scope (empty when no
    /// declaration is needed). Reuses the two scratch buffers so the hot
    /// path allocates nothing. `is_attr`: unprefixed attributes are in no
    /// namespace, so attributes in a namespace always need a prefix.
    fn qualified_buf(&mut self, name: &QName, is_attr: bool) -> Result<(), XmlError> {
        self.lex_buf.clear();
        self.decl_buf.clear();
        validate_name(name.local())?;
        let ns = match name.namespace() {
            Some(ns) if !ns.is_empty() => ns,
            _ => {
                // No namespace. For elements, make sure no default ns is in
                // scope that would capture this name.
                if !is_attr {
                    let shadowed =
                        matches!(self.scope.resolve(""), Some(uri) if !uri.is_empty());
                    if shadowed {
                        self.scope.declare("", "");
                        self.decl_buf.push_str(" xmlns=\"\"");
                    }
                }
                self.lex_buf.push_str(name.local());
                return Ok(());
            }
        };

        // Already bound?
        if let Some(p) = self.scope.prefix_for(ns) {
            if p.is_empty() {
                if is_attr {
                    // default ns does not apply to attributes; fall through
                    // to declare a real prefix.
                } else {
                    self.lex_buf.push_str(name.local());
                    return Ok(());
                }
            } else {
                self.lex_buf.push_str(p);
                self.lex_buf.push(':');
                self.lex_buf.push_str(name.local());
                return Ok(());
            }
        }

        // Need a declaration on this element.
        let generated;
        let prefix: &str = match name.prefix() {
            Some(p)
                if !p.is_empty()
                    && (self.scope.resolve(p).is_none()
                        || self.scope.resolve(p) == Some(ns)) =>
            {
                p
            }
            _ => {
                self.generated += 1;
                generated = format!("ns{}", self.generated);
                &generated
            }
        };
        if self.scope.resolve(prefix) != Some(ns) {
            self.scope.declare(prefix, ns);
            self.decl_buf.push_str(" xmlns:");
            self.decl_buf.push_str(prefix);
            self.decl_buf.push_str("=\"");
            escape_attr_into(&mut self.decl_buf, ns);
            self.decl_buf.push('"');
        }
        self.lex_buf.push_str(prefix);
        self.lex_buf.push(':');
        self.lex_buf.push_str(name.local());
        Ok(())
    }

    fn misuse(&self, msg: &str) -> XmlError {
        XmlError::new(XmlErrorKind::WriterState(msg.to_string()), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_element_with_text() {
        let mut w = XmlWriter::new();
        w.start_element(&QName::new("a")).unwrap();
        w.text("x < y").unwrap();
        w.end_element().unwrap();
        assert_eq!(w.finish().unwrap(), "<a>x &lt; y</a>");
    }

    #[test]
    fn self_closing_when_empty() {
        let mut w = XmlWriter::new();
        w.start_element(&QName::new("a")).unwrap();
        w.attribute(&QName::new("id"), "1").unwrap();
        w.end_element().unwrap();
        assert_eq!(w.finish().unwrap(), "<a id=\"1\"/>");
    }

    #[test]
    fn namespace_autodeclared_with_suggested_prefix() {
        let mut w = XmlWriter::new();
        let name = QName::with_ns("urn:x", "a").with_prefix("x");
        w.start_element(&name).unwrap();
        w.start_element(&QName::with_ns("urn:x", "b")).unwrap();
        w.end_element().unwrap();
        w.end_element().unwrap();
        assert_eq!(w.finish().unwrap(), "<x:a xmlns:x=\"urn:x\"><x:b/></x:a>");
    }

    #[test]
    fn namespace_generated_prefix_when_needed() {
        let mut w = XmlWriter::new();
        w.start_element(&QName::with_ns("urn:x", "a")).unwrap();
        w.end_element().unwrap();
        assert_eq!(w.finish().unwrap(), "<ns1:a xmlns:ns1=\"urn:x\"/>");
    }

    #[test]
    fn attribute_in_namespace_gets_prefix() {
        let mut w = XmlWriter::new();
        w.start_element(&QName::new("a")).unwrap();
        w.attribute(&QName::with_ns("urn:x", "id").with_prefix("x"), "7").unwrap();
        w.end_element().unwrap();
        assert_eq!(w.finish().unwrap(), "<a xmlns:x=\"urn:x\" x:id=\"7\"/>");
    }

    #[test]
    fn attribute_after_content_rejected() {
        let mut w = XmlWriter::new();
        w.start_element(&QName::new("a")).unwrap();
        w.text("t").unwrap();
        assert!(w.attribute(&QName::new("x"), "1").is_err());
    }

    #[test]
    fn unbalanced_finish_rejected() {
        let mut w = XmlWriter::new();
        w.start_element(&QName::new("a")).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn second_root_rejected() {
        let mut w = XmlWriter::new();
        w.start_element(&QName::new("a")).unwrap();
        w.end_element().unwrap();
        assert!(w.start_element(&QName::new("b")).is_err());
    }

    #[test]
    fn declaration_then_root() {
        let mut w = XmlWriter::new();
        w.declaration().unwrap();
        w.start_element(&QName::new("a")).unwrap();
        w.end_element().unwrap();
        assert_eq!(w.finish().unwrap(), "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
    }

    #[test]
    fn pretty_printing_indents_structure_not_text() {
        let mut w = XmlWriter::pretty("  ");
        w.start_element(&QName::new("a")).unwrap();
        w.start_element(&QName::new("b")).unwrap();
        w.text("t").unwrap();
        w.end_element().unwrap();
        w.end_element().unwrap();
        assert_eq!(w.finish().unwrap(), "<a>\n  <b>t</b>\n</a>\n");
    }

    #[test]
    fn writer_output_reparses() {
        let mut w = XmlWriter::new();
        let env = QName::with_ns("urn:env", "Envelope").with_prefix("env");
        w.start_element(&env).unwrap();
        w.attribute(&QName::new("version"), "1.0").unwrap();
        w.start_element(&QName::with_ns("urn:env", "Body")).unwrap();
        w.text("payload & more").unwrap();
        w.end_element().unwrap();
        w.end_element().unwrap();
        let xml = w.finish().unwrap();
        let root = crate::tree::Element::parse(&xml).unwrap();
        assert_eq!(root.name().namespace(), Some("urn:env"));
        assert_eq!(root.children().len(), 1);
        assert_eq!(root.children()[0].text(), "payload & more");
    }
}
