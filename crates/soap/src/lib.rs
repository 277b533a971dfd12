//! # wsg-soap — SOAP 1.2 processing stack
//!
//! The message layer the WS-Gossip middleware is built on: a SOAP 1.2
//! [`Envelope`] model with headers and faults, **WS-Addressing** message
//! addressing properties ([`addressing::MessageHeaders`]), and — most
//! importantly for the paper — a [`handler::HandlerChain`]: the *compliant
//! middleware stack* of the paper's §3, an ordered set of handlers through
//! which every inbound and outbound message flows, and which a handler (the
//! gossip layer) may use to intercept and **re-route** messages to selected
//! destinations. The crate ships the chain and the [`Handler`] trait, not
//! handlers: the one this workspace installs is `ws_gossip`'s gossip layer.
//!
//! ## Example
//!
//! ```
//! use wsg_soap::{Envelope, addressing::MessageHeaders};
//! use wsg_xml::Element;
//!
//! # fn main() -> Result<(), wsg_soap::SoapError> {
//! let headers = MessageHeaders::request("http://svc/stock", "http://svc/stock/Notify")
//!     .with_message_id("urn:uuid:1234");
//! let envelope = Envelope::request(headers, Element::text_node("tick", "ACME 101.25"));
//! let wire = envelope.to_xml();
//! let parsed = Envelope::parse(&wire)?;
//! assert_eq!(parsed.addressing().action(), Some("http://svc/stock/Notify"));
//! # Ok(())
//! # }
//! ```

pub mod addressing;
pub mod batch;
pub mod envelope;
pub mod fault;
pub mod gossip;
pub mod handler;
mod qnames;
pub mod uuid;

mod error;

pub use addressing::{EndpointReference, MessageHeaders};
pub use envelope::Envelope;
pub use error::SoapError;
pub use fault::{Fault, FaultCode};
pub use gossip::{GossipId, WSGOSSIP_NS};
pub use handler::{ChainResult, Disposition, Handler, HandlerChain, HandlerOutcome, MessageContext};
pub use uuid::Uuid;

/// SOAP 1.2 envelope namespace.
pub const SOAP_ENV_NS: &str = "http://www.w3.org/2003/05/soap-envelope";

/// WS-Addressing 1.0 namespace.
pub const WSA_NS: &str = "http://www.w3.org/2005/08/addressing";

/// WS-Addressing anonymous endpoint URI (reply to the connection peer).
pub(crate) const WSA_ANONYMOUS: &str = "http://www.w3.org/2005/08/addressing/anonymous";
