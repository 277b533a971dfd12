//! # wsg-xml — minimal XML 1.0 infoset
//!
//! A small, dependency-free XML library providing exactly what a SOAP 1.2
//! processing stack needs: a streaming [`writer::XmlWriter`], a pull
//! [`reader::XmlReader`], namespace-aware qualified names ([`name::QName`])
//! and an in-memory tree model ([`tree::Element`]).
//!
//! The WS-Gossip paper layers gossip on a SOAP/WS-* middleware stack. No
//! SOAP implementation exists in the Rust ecosystem, so this crate is the
//! from-scratch substrate: it is deliberately *not* a full XML 1.0
//! implementation (no DTDs, no external entities — which is also the secure
//! default for a network-facing middleware), but it is a faithful infoset
//! for the document shapes that WS-* messages use: elements, attributes,
//! namespaces, character data, CDATA, comments and processing instructions.
//!
//! ## Example
//!
//! ```
//! use wsg_xml::tree::Element;
//!
//! # fn main() -> Result<(), wsg_xml::XmlError> {
//! let mut root = Element::new("Envelope")
//!     .with_namespace("env", "http://www.w3.org/2003/05/soap-envelope");
//! root.push_child(Element::new("Body"));
//! let text = root.to_xml_string();
//! let parsed = Element::parse(&text)?;
//! assert_eq!(parsed.local_name(), "Envelope");
//! # Ok(())
//! # }
//! ```

pub mod escape;
pub mod event;
pub mod name;
pub mod reader;
pub mod tree;
pub mod writer;

mod error;

pub use error::XmlError;
pub use event::XmlEvent;
pub use name::QName;
pub use reader::{RawEvent, XmlReader};
pub use tree::Element;
pub use writer::XmlWriter;

/// The XML namespace URI bound to the reserved `xml` prefix.
pub(crate) const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";
