//! WS-Addressing 1.0 message addressing properties.

use wsg_xml::{Element, QName, RawEvent, XmlError, XmlReader, XmlWriter};

use crate::error::SoapError;
use crate::{qnames, WSA_ANONYMOUS, WSA_NS};

/// A WS-Addressing endpoint reference: the address plus opaque reference
/// parameters that are echoed back in messages sent to the endpoint.
///
/// ```
/// use wsg_soap::EndpointReference;
///
/// let epr = EndpointReference::new("http://node7/gossip");
/// assert_eq!(epr.address(), "http://node7/gossip");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointReference {
    address: String,
    reference_parameters: Vec<Element>,
}

impl EndpointReference {
    /// An endpoint with the given address URI.
    pub fn new(address: impl Into<String>) -> Self {
        EndpointReference { address: address.into(), reference_parameters: Vec::new() }
    }

    /// The WS-Addressing anonymous endpoint.
    pub fn anonymous() -> Self {
        EndpointReference::new(WSA_ANONYMOUS)
    }

    /// Attach a reference parameter (builder style).
    pub fn with_parameter(mut self, parameter: Element) -> Self {
        self.reference_parameters.push(parameter);
        self
    }

    /// The address URI.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// Serialise as the content of an EPR-typed element named `name`.
    pub fn to_element(&self, local: &str) -> Element {
        let mut epr = Element::in_ns("wsa", WSA_NS, local);
        epr.push_child(
            Element::in_ns("wsa", WSA_NS, "Address").with_text(self.address.clone()),
        );
        if !self.reference_parameters.is_empty() {
            let mut params = Element::in_ns("wsa", WSA_NS, "ReferenceParameters");
            for p in &self.reference_parameters {
                params.push_child(p.clone());
            }
            epr.push_child(params);
        }
        epr
    }

    /// Stream this EPR as an element named `name` into an open writer —
    /// byte-identical to serialising [`EndpointReference::to_element`],
    /// without building the intermediate tree.
    pub fn write_into(&self, name: &QName, w: &mut XmlWriter) -> Result<(), XmlError> {
        w.start_element(name)?;
        w.start_element(&qnames::WSA_ADDRESS)?;
        w.text(&self.address)?;
        w.end_element()?;
        if !self.reference_parameters.is_empty() {
            w.start_element(&qnames::WSA_REFERENCE_PARAMETERS)?;
            for p in &self.reference_parameters {
                p.write_into(w)?;
            }
            w.end_element()?;
        }
        w.end_element()
    }

    /// Decode the EPR-typed element `reader` just started straight from
    /// its tokens into `slot` — its first `wsa:Address` (mandatory) and
    /// the children of its first `wsa:ReferenceParameters` — consuming
    /// through its end tag. The outer error is the document's, the inner
    /// one the EPR's.
    fn read_into(
        slot: &mut Option<Self>,
        reader: &mut XmlReader<'_>,
    ) -> Result<Result<(), SoapError>, XmlError> {
        let (mut address, mut parameters) = (None, None);
        loop {
            match reader.next_raw()? {
                RawEvent::Start => match reader.element_name() {
                    (Some(WSA_NS), "Address") if address.is_none() => {
                        address = Some(reader.direct_text()?.into_owned());
                    }
                    (Some(WSA_NS), "ReferenceParameters") if parameters.is_none() => {
                        parameters = Some(read_children(reader)?);
                    }
                    _ => reader.skip_element()?,
                },
                RawEvent::End => break,
                _ => {}
            }
        }
        let Some(address) = address else {
            return Ok(Err(SoapError::Addressing("EndpointReference without Address".into())));
        };
        *slot = Some(EndpointReference {
            address,
            reference_parameters: parameters.unwrap_or_default(),
        });
        Ok(Ok(()))
    }
}

/// Build the child elements of the element `reader` just started,
/// consuming through its end tag.
fn read_children(reader: &mut XmlReader<'_>) -> Result<Vec<Element>, XmlError> {
    let mut children = Vec::new();
    loop {
        match reader.next_raw()? {
            RawEvent::Start => children.push(Element::from_open(reader)?),
            RawEvent::End => return Ok(children),
            _ => {}
        }
    }
}

impl From<&str> for EndpointReference {
    fn from(address: &str) -> Self {
        EndpointReference::new(address)
    }
}

/// The WS-Addressing properties of one message: `To`, `Action`,
/// `MessageID`, `RelatesTo`, `From`, `ReplyTo`, `FaultTo`.
///
/// `To` and `Action` are the two properties SOAP intermediaries route on;
/// the gossip handler rewrites `To` when re-routing a message to peers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageHeaders {
    to: Option<String>,
    action: Option<String>,
    message_id: Option<String>,
    relates_to: Option<String>,
    from: Option<EndpointReference>,
    reply_to: Option<EndpointReference>,
    fault_to: Option<EndpointReference>,
}

impl MessageHeaders {
    /// Empty set of addressing properties.
    pub fn new() -> Self {
        Self::default()
    }

    /// The usual request shape: a destination and an action URI.
    pub fn request(to: impl Into<String>, action: impl Into<String>) -> Self {
        MessageHeaders {
            to: Some(to.into()),
            action: Some(action.into()),
            ..Default::default()
        }
    }

    /// Builder: set `MessageID`.
    pub fn with_message_id(mut self, id: impl Into<String>) -> Self {
        self.message_id = Some(id.into());
        self
    }

    /// Builder: set `RelatesTo` (correlates replies to requests).
    pub fn with_relates_to(mut self, id: impl Into<String>) -> Self {
        self.relates_to = Some(id.into());
        self
    }

    /// Builder: set the `From` endpoint.
    pub fn with_from(mut self, from: EndpointReference) -> Self {
        self.from = Some(from);
        self
    }

    /// Builder: set the `ReplyTo` endpoint.
    pub fn with_reply_to(mut self, reply_to: EndpointReference) -> Self {
        self.reply_to = Some(reply_to);
        self
    }

    /// Builder: set the `FaultTo` endpoint.
    pub fn with_fault_to(mut self, fault_to: EndpointReference) -> Self {
        self.fault_to = Some(fault_to);
        self
    }

    /// Destination URI.
    pub fn to(&self) -> Option<&str> {
        self.to.as_deref()
    }

    /// Action URI identifying the operation.
    pub fn action(&self) -> Option<&str> {
        self.action.as_deref()
    }

    /// Unique message identifier.
    pub fn message_id(&self) -> Option<&str> {
        self.message_id.as_deref()
    }

    /// Identifier of the message this one relates to.
    pub fn relates_to(&self) -> Option<&str> {
        self.relates_to.as_deref()
    }

    /// Source endpoint.
    pub fn from(&self) -> Option<&EndpointReference> {
        self.from.as_ref()
    }

    /// Reply endpoint.
    pub fn reply_to(&self) -> Option<&EndpointReference> {
        self.reply_to.as_ref()
    }

    /// Rewrite the destination — used by the gossip layer when re-routing
    /// an intercepted message to a selected peer.
    pub fn set_to(&mut self, to: impl Into<String>) {
        self.to = Some(to.into());
    }

    /// Set the action URI.
    pub fn set_action(&mut self, action: impl Into<String>) {
        self.action = Some(action.into());
    }

    /// Rewrite the source endpoint.
    pub fn set_from(&mut self, from: EndpointReference) {
        self.from = Some(from);
    }

    /// Set the message identifier.
    pub fn set_message_id(&mut self, id: impl Into<String>) {
        self.message_id = Some(id.into());
    }

    /// The blocks that name the conversation — `Action`, `From`, `ReplyTo`,
    /// `FaultTo`: the same on every message one sender puts into one
    /// exchange, so they lead the header and consecutive messages to a
    /// peer start with the same bytes (see [`crate::batch`]). An envelope's
    /// other header blocks stand between these and
    /// [`copy_blocks`](Self::copy_blocks), in the order
    /// [`Envelope::write_into`](crate::Envelope::write_into) emits them.
    pub(crate) fn conversation_blocks(&self) -> Vec<Element> {
        let mut blocks = Vec::new();
        if let Some(action) = &self.action {
            blocks.push(Element::in_ns("wsa", WSA_NS, "Action").with_text(action.clone()));
        }
        if let Some(from) = &self.from {
            blocks.push(from.to_element("From"));
        }
        if let Some(reply_to) = &self.reply_to {
            blocks.push(reply_to.to_element("ReplyTo"));
        }
        if let Some(fault_to) = &self.fault_to {
            blocks.push(fault_to.to_element("FaultTo"));
        }
        blocks
    }

    /// The blocks that name this copy — `To`, `MessageID`, `RelatesTo`:
    /// they close the header. `To` travels with `MessageID` so that the
    /// `f` copies of one notification differ in one short run of bytes.
    pub(crate) fn copy_blocks(&self) -> Vec<Element> {
        let mut blocks = Vec::new();
        if let Some(to) = &self.to {
            blocks.push(Element::in_ns("wsa", WSA_NS, "To").with_text(to.clone()));
        }
        if let Some(id) = &self.message_id {
            blocks.push(Element::in_ns("wsa", WSA_NS, "MessageID").with_text(id.clone()));
        }
        if let Some(rel) = &self.relates_to {
            blocks.push(Element::in_ns("wsa", WSA_NS, "RelatesTo").with_text(rel.clone()));
        }
        blocks
    }

    /// Whether no addressing property is set (no header block would be
    /// written for it).
    pub fn is_empty(&self) -> bool {
        self.to.is_none()
            && self.action.is_none()
            && self.message_id.is_none()
            && self.relates_to.is_none()
            && self.from.is_none()
            && self.reply_to.is_none()
            && self.fault_to.is_none()
    }

    /// Stream [`Self::conversation_blocks`] into an open writer —
    /// byte-identical to serialising those elements in order, without
    /// building them.
    pub(crate) fn write_conversation_blocks(&self, w: &mut XmlWriter) -> Result<(), XmlError> {
        if let Some(action) = &self.action {
            write_text_block(w, &qnames::WSA_ACTION, action)?;
        }
        if let Some(from) = &self.from {
            from.write_into(&qnames::WSA_FROM, w)?;
        }
        if let Some(reply_to) = &self.reply_to {
            reply_to.write_into(&qnames::WSA_REPLY_TO, w)?;
        }
        if let Some(fault_to) = &self.fault_to {
            fault_to.write_into(&qnames::WSA_FAULT_TO, w)?;
        }
        Ok(())
    }

    /// Stream [`Self::copy_blocks`] into an open writer, likewise.
    pub(crate) fn write_copy_blocks(&self, w: &mut XmlWriter) -> Result<(), XmlError> {
        if let Some(to) = &self.to {
            write_text_block(w, &qnames::WSA_TO, to)?;
        }
        if let Some(id) = &self.message_id {
            write_text_block(w, &qnames::WSA_MESSAGE_ID, id)?;
        }
        if let Some(rel) = &self.relates_to {
            write_text_block(w, &qnames::WSA_RELATES_TO, rel)?;
        }
        Ok(())
    }

    /// Decode the `wsa:` header block `reader` just started straight from
    /// its tokens, consuming through its end tag: a property block sets
    /// its property (the last of a name wins), any other `wsa:` block is
    /// skipped. The outer error is the document's; the inner one says why
    /// an EPR-typed block is no endpoint reference.
    pub(crate) fn read_block(
        &mut self,
        reader: &mut XmlReader<'_>,
    ) -> Result<Result<(), SoapError>, XmlError> {
        let slot = match reader.element_name().1 {
            "To" => &mut self.to,
            "Action" => &mut self.action,
            "MessageID" => &mut self.message_id,
            "RelatesTo" => &mut self.relates_to,
            "From" => return EndpointReference::read_into(&mut self.from, reader),
            "ReplyTo" => return EndpointReference::read_into(&mut self.reply_to, reader),
            "FaultTo" => return EndpointReference::read_into(&mut self.fault_to, reader),
            _ => return reader.skip_element().map(Ok),
        };
        *slot = Some(reader.direct_text()?.into_owned());
        Ok(Ok(()))
    }
}

/// Write `<name>text</name>` exactly as the tree form does: `with_text`
/// always pushes a text node, so `w.text` is called even for an empty
/// value (`<wsa:To></wsa:To>`, never self-closed).
fn write_text_block(w: &mut XmlWriter, name: &QName, text: &str) -> Result<(), XmlError> {
    w.start_element(name)?;
    w.text(text)?;
    w.end_element()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_sets_to_and_action() {
        let h = MessageHeaders::request("http://dest", "urn:op");
        assert_eq!(h.to(), Some("http://dest"));
        assert_eq!(h.action(), Some("urn:op"));
        assert_eq!(h.message_id(), None);
    }

    /// The addressing properties an envelope parse decodes from `h`'s
    /// header blocks.
    fn over_the_wire(h: &MessageHeaders) -> MessageHeaders {
        let wire = crate::Envelope::empty(h.clone()).to_xml();
        crate::Envelope::parse(&wire).unwrap().addressing().clone()
    }

    #[test]
    fn header_blocks_roundtrip() {
        let h = MessageHeaders::request("http://dest", "urn:op")
            .with_message_id("urn:uuid:1")
            .with_relates_to("urn:uuid:0")
            .with_from(EndpointReference::new("http://src"))
            .with_reply_to(EndpointReference::anonymous())
            .with_fault_to(EndpointReference::new("http://faults"));
        assert_eq!(h.conversation_blocks().len() + h.copy_blocks().len(), 7);
        assert_eq!(over_the_wire(&h), h);
    }

    #[test]
    fn non_wsa_headers_ignored() {
        let foreign = Element::in_ns("x", "urn:other", "To").with_text("nope");
        let wire = crate::Envelope::empty(MessageHeaders::new()).with_header(foreign).to_xml();
        let parsed = crate::Envelope::parse(&wire).unwrap();
        assert_eq!(parsed.addressing().to(), None);
        assert_eq!(parsed.headers().len(), 1);
    }

    #[test]
    fn epr_with_reference_parameters_roundtrips() {
        let epr = EndpointReference::new("http://node")
            .with_parameter(Element::text_node("shard", "3"));
        let h = MessageHeaders::new().with_reply_to(epr.clone());
        assert_eq!(over_the_wire(&h).reply_to(), Some(&epr));
    }

    #[test]
    fn epr_without_address_rejected() {
        let wire = format!(
            r#"<env:Envelope xmlns:env="{}" xmlns:wsa="{WSA_NS}"><env:Header><wsa:ReplyTo/></env:Header><env:Body/></env:Envelope>"#,
            crate::SOAP_ENV_NS
        );
        assert!(matches!(crate::Envelope::parse(&wire), Err(SoapError::Addressing(_))));
    }

    #[test]
    fn set_to_rewrites_destination() {
        let mut h = MessageHeaders::request("http://a", "urn:op");
        h.set_to("http://b");
        assert_eq!(h.to(), Some("http://b"));
    }
}
