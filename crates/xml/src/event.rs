//! Pull-parser events.

use crate::name::QName;

/// One attribute on a start tag, with its name fully namespace-resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Resolved attribute name. Unprefixed attributes have no namespace.
    pub name: QName,
    /// Unescaped attribute value.
    pub value: String,
}

/// An event produced by [`crate::XmlReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// `<?xml version="1.0" ...?>` prologue.
    Declaration {
        /// Version string, normally `1.0`.
        version: String,
        /// Declared encoding, if present.
        encoding: Option<String>,
    },
    /// Start of an element; `empty` is true for `<a/>` (an `EndElement`
    /// event is still emitted right after, so nesting is uniform).
    StartElement {
        /// Resolved element name.
        name: QName,
        /// Attributes in document order (namespace declarations excluded).
        attributes: Vec<Attribute>,
        /// Whether this was a self-closing tag.
        empty: bool,
    },
    /// End of an element.
    EndElement {
        /// Resolved element name.
        name: QName,
    },
    /// Character data (entities already resolved). Adjacent text/CDATA are
    /// *not* merged; each run is its own event.
    Text(String),
    /// A `<![CDATA[...]]>` section, verbatim.
    CData(String),
    /// A comment, without the delimiters.
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction {
        /// PI target.
        target: String,
        /// Raw PI data.
        data: String,
    },
    /// End of the document.
    Eof,
}

impl XmlEvent {
    /// Convenience: is this a start of the element with the given resolved
    /// namespace + local name?
    #[cfg(test)]
    pub(crate) fn is_start_of(&self, ns: Option<&str>, local: &str) -> bool {
        matches!(self, XmlEvent::StartElement { name, .. } if name.matches(ns, local))
    }

    /// Convenience: is this an end of the element with the given resolved
    /// namespace + local name?
    #[cfg(test)]
    pub(crate) fn is_end_of(&self, ns: Option<&str>, local: &str) -> bool {
        matches!(self, XmlEvent::EndElement { name } if name.matches(ns, local))
    }
}
