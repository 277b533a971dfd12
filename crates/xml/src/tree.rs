//! In-memory element tree built on the reader/writer.

use crate::error::{XmlError, XmlErrorKind};
use crate::name::QName;
use crate::reader::{RawEvent, XmlReader};
use crate::writer::XmlWriter;

/// A node in an element's content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Child element.
    Element(Element),
    /// Character data (text and CDATA merged; never empty in a parsed
    /// tree).
    Text(String),
}

/// An in-memory XML element: name, attributes, explicit namespace
/// declarations and ordered content.
///
/// This is the working representation for SOAP headers and bodies — small
/// documents where tree convenience beats streaming.
///
/// ```
/// use wsg_xml::Element;
///
/// let mut order = Element::new("order");
/// order.set_attr("id", "42");
/// order.push_child(Element::text_node("symbol", "ACME"));
/// assert_eq!(order.child("symbol").unwrap().text(), "ACME");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    name: QName,
    attributes: Vec<(QName, String)>,
    namespaces: Vec<(String, String)>, // (prefix, uri) explicit declarations
    content: Vec<Node>,
}

impl Element {
    /// An element with an unqualified name.
    pub fn new(local: impl Into<String>) -> Self {
        Element {
            name: QName::new(local),
            attributes: Vec::new(),
            namespaces: Vec::new(),
            content: Vec::new(),
        }
    }

    /// An element with a full [`QName`].
    pub fn with_name(name: QName) -> Self {
        Element { name, attributes: Vec::new(), namespaces: Vec::new(), content: Vec::new() }
    }

    /// An element in namespace `ns` with suggested `prefix`.
    pub fn in_ns(prefix: &str, ns: &str, local: impl Into<String>) -> Self {
        Element::with_name(QName::with_ns(ns, local).with_prefix(prefix))
    }

    /// Leaf element containing only `text`.
    pub fn text_node(local: impl Into<String>, text: impl Into<String>) -> Self {
        let mut e = Element::new(local);
        e.set_text(text);
        e
    }

    /// Builder-style: attach an explicit namespace declaration.
    pub fn with_namespace(mut self, prefix: &str, uri: &str) -> Self {
        self.namespaces.push((prefix.to_string(), uri.to_string()));
        self
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, name: impl Into<QName>, value: impl Into<String>) -> Self {
        self.set_qattr(name.into(), value);
        self
    }

    /// Builder-style: append a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.push_child(child);
        self
    }

    /// Builder-style: append text content.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.content.push(Node::Text(text.into()));
        self
    }

    /// The element name.
    pub fn name(&self) -> &QName {
        &self.name
    }

    /// Local part of the name.
    pub fn local_name(&self) -> &str {
        self.name.local()
    }

    /// All attributes in document order.
    pub fn attributes(&self) -> &[(QName, String)] {
        &self.attributes
    }

    /// Value of the attribute with unqualified name `name`.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(q, _)| q.namespace().is_none() && q.local() == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of the attribute with qualified name (`ns`, `local`).
    pub fn attr_ns(&self, ns: &str, local: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(q, _)| q.matches(Some(ns), local))
            .map(|(_, v)| v.as_str())
    }

    /// Set an unqualified attribute, replacing any existing value.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.set_qattr(QName::new(name.into()), value);
    }

    /// Set a qualified attribute, replacing any existing value.
    pub fn set_qattr(&mut self, name: QName, value: impl Into<String>) {
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(q, _)| *q == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Ordered content nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.content
    }

    /// Child elements only.
    pub fn children(&self) -> Vec<&Element> {
        self.content
            .iter()
            .filter_map(|n| match n {
                Node::Element(e) => Some(e),
                Node::Text(_) => None,
            })
            .collect()
    }

    /// First child element with local name `local` (any namespace).
    pub fn child(&self, local: &str) -> Option<&Element> {
        self.content.iter().find_map(|n| match n {
            Node::Element(e) if e.local_name() == local => Some(e),
            _ => None,
        })
    }

    /// First child element matching namespace + local name.
    pub fn child_ns(&self, ns: &str, local: &str) -> Option<&Element> {
        self.content.iter().find_map(|n| match n {
            Node::Element(e) if e.name.matches(Some(ns), local) => Some(e),
            _ => None,
        })
    }

    /// Mutable access to the first child with local name `local`.
    pub fn child_mut(&mut self, local: &str) -> Option<&mut Element> {
        self.content.iter_mut().find_map(|n| match n {
            Node::Element(e) if e.local_name() == local => Some(e),
            _ => None,
        })
    }

    /// All child elements with local name `local`.
    pub fn children_named(&self, local: &str) -> Vec<&Element> {
        self.content
            .iter()
            .filter_map(|n| match n {
                Node::Element(e) if e.local_name() == local => Some(e),
                _ => None,
            })
            .collect()
    }

    /// Append a child element.
    pub fn push_child(&mut self, child: Element) {
        self.content.push(Node::Element(child));
    }

    /// Remove all children with local name `local`; returns how many were
    /// removed.
    pub fn remove_children(&mut self, local: &str) -> usize {
        let before = self.content.len();
        self.content.retain(|n| !matches!(n, Node::Element(e) if e.local_name() == local));
        before - self.content.len()
    }

    /// Concatenated text content of this element (direct text nodes only).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.content {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Replace all content with a single text node.
    pub fn set_text(&mut self, text: impl Into<String>) {
        self.content.clear();
        self.content.push(Node::Text(text.into()));
    }

    /// True when the element has no content.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// Parse a document and return its root element.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`XmlError`] for malformed documents.
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        let mut reader = XmlReader::new(input);
        // A document without a root element is an error before its end.
        while reader.next_raw()? != RawEvent::Start {}
        let root = Self::from_open(&mut reader)?;
        reader.finish()?;
        Ok(root)
    }

    /// Build the subtree of the element `reader` just started (after a
    /// [`RawEvent::Start`]), consuming events through its end tag.
    /// Paired with [`XmlReader::position`] this lets streaming consumers
    /// (e.g. the SOAP batch unwrapper) recover each subtree's exact byte
    /// span in the source document instead of re-serialising the
    /// finished tree.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`XmlError`] for malformed content.
    pub fn from_open(reader: &mut XmlReader<'_>) -> Result<Element, XmlError> {
        let (name, attributes) = reader.start_tag();
        let mut element =
            Element { name, attributes, namespaces: Vec::new(), content: Vec::new() };
        loop {
            match reader.next_raw()? {
                RawEvent::Start => {
                    let child = Self::from_open(reader)?;
                    element.push_parsed(Node::Element(child));
                }
                RawEvent::End => {
                    // Parsed trees get kept (a delivered payload, a
                    // header block): leave no growth slack behind.
                    element.content.shrink_to_fit();
                    return Ok(element);
                }
                // An empty run (`<![CDATA[]]>`) holds nothing, so it adds
                // no node: `<p><![CDATA[]]></p>` is the tree of `<p/>`.
                RawEvent::Text(run) if run.is_empty() => {}
                RawEvent::Text(run) => {
                    // Merge adjacent text runs for a canonical tree.
                    if let Some(Node::Text(prev)) = element.content.last_mut() {
                        prev.push_str(&run);
                    } else {
                        element.push_parsed(Node::Text(run.into_owned()));
                    }
                }
                RawEvent::Markup => {}
                RawEvent::Eof => {
                    return Err(XmlError::new(XmlErrorKind::UnexpectedEof, reader.position()))
                }
            }
        }
    }

    /// Append a node while parsing. Most elements hold exactly one — a
    /// text run — so the first gets room for one, not `Vec`'s default
    /// four (a `Node` is as wide as an `Element`).
    fn push_parsed(&mut self, node: Node) {
        if self.content.is_empty() {
            self.content.reserve_exact(1);
        }
        self.content.push(node);
    }

    /// Serialise this element as a compact document string.
    pub fn to_xml_string(&self) -> String {
        let mut w = XmlWriter::new();
        self.write_into(&mut w).expect("element tree is always writable");
        w.finish().expect("element tree is always balanced")
    }

    /// Write this element into an open [`XmlWriter`].
    ///
    /// # Errors
    ///
    /// Propagates writer errors (e.g. invalid names).
    pub fn write_into(&self, w: &mut XmlWriter) -> Result<(), XmlError> {
        w.start_element(&self.name)?;
        for (prefix, uri) in &self.namespaces {
            w.declare_namespace(prefix, uri)?;
        }
        for (name, value) in &self.attributes {
            w.attribute(name, value)?;
        }
        for node in &self.content {
            match node {
                Node::Element(e) => e.write_into(w)?,
                Node::Text(t) => w.text(t)?,
            }
        }
        w.end_element()
    }

    /// Byte length of the compact serialisation — the "wire size" used by
    /// the simulator's bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        self.to_xml_string().len()
    }

    /// Select descendant elements by a `/`-separated path of local names;
    /// `*` matches any name at that step. Namespaces are ignored (local
    /// names only) — the 90% case for plucking values out of SOAP bodies.
    ///
    /// ```
    /// use wsg_xml::Element;
    ///
    /// # fn main() -> Result<(), wsg_xml::XmlError> {
    /// let doc = Element::parse("<r><a><v>1</v></a><b><v>2</v></b></r>")?;
    /// let values: Vec<String> = doc.select("*/v").iter().map(|e| e.text()).collect();
    /// assert_eq!(values, ["1", "2"]);
    /// assert_eq!(doc.select("a/v")[0].text(), "1");
    /// assert!(doc.select("a/missing").is_empty());
    /// # Ok(())
    /// # }
    /// ```
    pub fn select(&self, path: &str) -> Vec<&Element> {
        let steps: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let mut current: Vec<&Element> = vec![self];
        for step in steps {
            let mut next = Vec::new();
            for element in current {
                for child in element.children() {
                    if step == "*" || child.local_name() == step {
                        next.push(child);
                    }
                }
            }
            current = next;
        }
        if current.len() == 1 && std::ptr::eq(current[0], self) {
            // Empty path selects nothing rather than self.
            return Vec::new();
        }
        current
    }
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_xml_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_navigate() {
        let tick = Element::new("tick")
            .with_attr("seq", "9")
            .with_child(Element::text_node("symbol", "ACME"))
            .with_child(Element::text_node("price", "101.25"));
        assert_eq!(tick.attr("seq"), Some("9"));
        assert_eq!(tick.child("price").unwrap().text(), "101.25");
        assert_eq!(tick.children().len(), 2);
    }

    #[test]
    fn parse_round_trip() {
        let xml = "<a id=\"1\"><b>x &amp; y</b><b>z</b></a>";
        let root = Element::parse(xml).unwrap();
        assert_eq!(root.children_named("b").len(), 2);
        assert_eq!(root.children_named("b")[0].text(), "x & y");
        let reparsed = Element::parse(&root.to_xml_string()).unwrap();
        assert_eq!(root, reparsed);
    }

    #[test]
    fn namespaced_round_trip() {
        let xml = "<e:Envelope xmlns:e=\"urn:env\"><e:Body><op xmlns=\"urn:app\">v</op></e:Body></e:Envelope>";
        let root = Element::parse(xml).unwrap();
        assert_eq!(root.name().namespace(), Some("urn:env"));
        let body = root.child_ns("urn:env", "Body").unwrap();
        let op = body.child_ns("urn:app", "op").unwrap();
        assert_eq!(op.text(), "v");
        let reparsed = Element::parse(&root.to_xml_string()).unwrap();
        assert_eq!(root, reparsed);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("a");
        e.set_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attr("k"), Some("2"));
        assert_eq!(e.attributes().len(), 1);
    }

    #[test]
    fn text_merges_adjacent_runs_on_parse() {
        let root = Element::parse("<a>x<![CDATA[y]]>z</a>").unwrap();
        assert_eq!(root.nodes().len(), 1);
        assert_eq!(root.text(), "xyz");
    }

    #[test]
    fn an_empty_cdata_section_adds_no_node() {
        let parsed = Element::parse("<p><![CDATA[]]></p>").unwrap();
        assert_eq!(parsed, Element::parse("<p></p>").unwrap());
        assert!(parsed.is_empty());
        // And writing it, then parsing that, gives the same tree.
        assert_eq!(parsed.to_xml_string(), "<p/>");
        assert_eq!(Element::parse(&parsed.to_xml_string()).unwrap(), parsed);
        // Between two runs it merges nothing away.
        let between = Element::parse("<p>a<![CDATA[]]>b</p>").unwrap();
        assert_eq!(between.nodes(), [Node::Text("ab".into())]);
    }

    #[test]
    fn comments_dropped_on_parse() {
        let root = Element::parse("<a><!-- c --><b/></a>").unwrap();
        assert_eq!(root.children().len(), 1);
    }

    #[test]
    fn display_is_compact_xml() {
        let e = Element::text_node("a", "t");
        assert_eq!(e.to_string(), "<a>t</a>");
    }

    #[test]
    fn wire_size_positive() {
        assert!(Element::new("a").wire_size() >= "<a/>".len());
    }

    #[test]
    fn remove_and_replace_children() {
        let mut e = Element::parse("<a><b>1</b><c/><b>2</b></a>").unwrap();
        assert_eq!(e.remove_children("b"), 2);
        assert_eq!(e.children().len(), 1);
        // To replace is to remove, then add.
        assert_eq!(e.remove_children("c"), 1);
        e.push_child(Element::text_node("c", "new"));
        assert_eq!(e.child("c").unwrap().text(), "new");
        assert_eq!(e.remove_children("d"), 0);
    }

    #[test]
    fn select_walks_paths() {
        let doc = Element::parse(
            "<envelope><body><tick><symbol>ACME</symbol><price>10</price></tick>             <tick><symbol>OTHR</symbol></tick></body></envelope>",
        )
        .unwrap();
        assert_eq!(doc.select("body/tick").len(), 2);
        assert_eq!(doc.select("body/tick/symbol")[0].text(), "ACME");
        assert_eq!(doc.select("body/tick/price")[0].text(), "10");
        assert_eq!(doc.select("*/*/symbol").len(), 2);
        assert!(doc.select("nope").is_empty());
        assert!(doc.select("").is_empty(), "empty path selects nothing");
    }

    #[test]
    fn select_ignores_namespaces() {
        let doc = Element::parse("<r xmlns=\"urn:x\"><v>1</v></r>").unwrap();
        assert_eq!(doc.select("v").len(), 1);
    }
}
