//! SOAP 1.2 faults.

use std::fmt;

use wsg_xml::Element;

use crate::error::SoapError;
use crate::SOAP_ENV_NS;

/// SOAP 1.2 standard fault codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultCode {
    /// The message did not follow SOAP 1.2 version rules.
    VersionMismatch,
    /// A mustUnderstand header was not understood.
    MustUnderstand,
    /// Encoding problems in the message data.
    DataEncodingUnknown,
    /// The message was malformed from the sender.
    Sender,
    /// The receiver failed while processing.
    Receiver,
}

impl FaultCode {
    /// The local name used on the wire.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultCode::VersionMismatch => "VersionMismatch",
            FaultCode::MustUnderstand => "MustUnderstand",
            FaultCode::DataEncodingUnknown => "DataEncodingUnknown",
            FaultCode::Sender => "Sender",
            FaultCode::Receiver => "Receiver",
        }
    }

    /// Parse from the wire local name (prefix already stripped).
    pub fn parse(text: &str) -> Option<Self> {
        Some(match text {
            "VersionMismatch" => FaultCode::VersionMismatch,
            "MustUnderstand" => FaultCode::MustUnderstand,
            "DataEncodingUnknown" => FaultCode::DataEncodingUnknown,
            "Sender" => FaultCode::Sender,
            "Receiver" => FaultCode::Receiver,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A SOAP 1.2 fault: code, human-readable reason and optional detail.
///
/// ```
/// use wsg_soap::{Fault, FaultCode};
///
/// let fault = Fault::new(FaultCode::Sender, "unknown coordination context");
/// assert_eq!(fault.code(), FaultCode::Sender);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    code: FaultCode,
    reason: String,
    detail: Option<Element>,
}

impl Fault {
    /// A fault with a code and reason text.
    pub fn new(code: FaultCode, reason: impl Into<String>) -> Self {
        Fault { code, reason: reason.into(), detail: None }
    }

    /// Attach application-specific detail.
    pub fn with_detail(mut self, detail: Element) -> Self {
        self.detail = Some(detail);
        self
    }

    /// The fault code.
    pub fn code(&self) -> FaultCode {
        self.code
    }

    /// The reason text.
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// Serialise as the `env:Fault` body element.
    pub fn to_element(&self) -> Element {
        let mut fault = Element::in_ns("env", SOAP_ENV_NS, "Fault");
        let mut code = Element::in_ns("env", SOAP_ENV_NS, "Code");
        code.push_child(
            Element::in_ns("env", SOAP_ENV_NS, "Value")
                .with_text(format!("env:{}", self.code.as_str())),
        );
        fault.push_child(code);
        let mut reason = Element::in_ns("env", SOAP_ENV_NS, "Reason");
        reason.push_child(
            Element::in_ns("env", SOAP_ENV_NS, "Text")
                .with_attr("lang", "en")
                .with_text(self.reason.clone()),
        );
        fault.push_child(reason);
        if let Some(detail) = &self.detail {
            let mut d = Element::in_ns("env", SOAP_ENV_NS, "Detail");
            d.push_child(detail.clone());
            fault.push_child(d);
        }
        fault
    }

    /// Parse from an `env:Fault` element.
    ///
    /// # Errors
    ///
    /// Fails when the mandatory `Code/Value` is missing or unknown.
    pub fn from_element(element: &Element) -> Result<Self, SoapError> {
        let value = element
            .child_ns(SOAP_ENV_NS, "Code")
            .and_then(|c| c.child_ns(SOAP_ENV_NS, "Value"))
            .map(|v| v.text())
            .ok_or(SoapError::MissingPart("Fault/Code/Value"))?;
        let local = value.rsplit(':').next().unwrap_or(&value);
        let code = FaultCode::parse(local)
            .ok_or_else(|| SoapError::NotAnEnvelope(format!("unknown fault code '{value}'")))?;
        let reason = element
            .child_ns(SOAP_ENV_NS, "Reason")
            .and_then(|r| r.child_ns(SOAP_ENV_NS, "Text"))
            .map(|t| t.text())
            .unwrap_or_default();
        let detail = element
            .child_ns(SOAP_ENV_NS, "Detail")
            .and_then(|d| d.children().first().map(|e| (*e).clone()));
        Ok(Fault { code, reason, detail })
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_without_detail() {
        let fault = Fault::new(FaultCode::Receiver, "downstream timeout");
        let parsed = Fault::from_element(&fault.to_element()).unwrap();
        assert_eq!(parsed, fault);
    }

    #[test]
    fn roundtrip_with_detail() {
        let fault = Fault::new(FaultCode::Sender, "bad context")
            .with_detail(Element::text_node("ContextId", "ctx-9"));
        let parsed = Fault::from_element(&fault.to_element()).unwrap();
        assert_eq!(parsed.detail.unwrap().text(), "ctx-9");
    }

    #[test]
    fn missing_code_rejected() {
        let el = Element::in_ns("env", SOAP_ENV_NS, "Fault");
        assert!(Fault::from_element(&el).is_err());
    }

    #[test]
    fn all_codes_roundtrip_wire_names() {
        for code in [
            FaultCode::VersionMismatch,
            FaultCode::MustUnderstand,
            FaultCode::DataEncodingUnknown,
            FaultCode::Sender,
            FaultCode::Receiver,
        ] {
            assert_eq!(FaultCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(FaultCode::parse("NotACode"), None);
    }

    #[test]
    fn display_formats_code_and_reason() {
        let fault = Fault::new(FaultCode::Sender, "nope");
        assert_eq!(fault.to_string(), "Sender: nope");
    }
}
