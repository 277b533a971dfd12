//! Interned qualified names for the recurring SOAP and WS-Addressing
//! vocabulary.
//!
//! Every message serialised by the middleware writes these names, so they
//! are [`QName::interned`] statics: cloning one never allocates, which
//! keeps the per-message serialisation cost down on the gossip hot path.

use wsg_xml::QName;

use crate::{SOAP_ENV_NS, WSA_NS};

/// `env:Envelope`.
pub(crate) static ENVELOPE: QName = QName::interned(SOAP_ENV_NS, "env", "Envelope");

/// `env:Header`.
pub(crate) static HEADER: QName = QName::interned(SOAP_ENV_NS, "env", "Header");

/// `env:Body`.
pub(crate) static BODY: QName = QName::interned(SOAP_ENV_NS, "env", "Body");

/// `wsa:To`.
pub(crate) static WSA_TO: QName = QName::interned(WSA_NS, "wsa", "To");

/// `wsa:Action`.
pub(crate) static WSA_ACTION: QName = QName::interned(WSA_NS, "wsa", "Action");

/// `wsa:MessageID`.
pub(crate) static WSA_MESSAGE_ID: QName = QName::interned(WSA_NS, "wsa", "MessageID");

/// `wsa:RelatesTo`.
pub(crate) static WSA_RELATES_TO: QName = QName::interned(WSA_NS, "wsa", "RelatesTo");

/// `wsa:From`.
pub(crate) static WSA_FROM: QName = QName::interned(WSA_NS, "wsa", "From");

/// `wsa:ReplyTo`.
pub(crate) static WSA_REPLY_TO: QName = QName::interned(WSA_NS, "wsa", "ReplyTo");

/// `wsa:FaultTo`.
pub(crate) static WSA_FAULT_TO: QName = QName::interned(WSA_NS, "wsa", "FaultTo");

/// `wsa:Address`.
pub(crate) static WSA_ADDRESS: QName = QName::interned(WSA_NS, "wsa", "Address");

/// `wsa:ReferenceParameters`.
pub(crate) static WSA_REFERENCE_PARAMETERS: QName =
    QName::interned(WSA_NS, "wsa", "ReferenceParameters");
