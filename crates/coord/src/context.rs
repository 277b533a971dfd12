//! The coordination context and the gossip coordination types.

use wsg_gossip::{GossipParams, GossipStyle};
use wsg_net::SimTime;
use wsg_xml::Element;

use crate::error::CoordError;
use crate::{WSCOOR_NS, WSGOSSIP_NS};

/// The gossip flavours registered as WS-Coordination coordination types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GossipProtocol {
    /// WS-PushGossip — push-based dissemination (the paper's §3 service).
    Push,
    /// Lazy push: advertise ids, ship payloads on demand.
    LazyPush,
    /// Pull-based dissemination.
    Pull,
    /// Combined push-pull.
    PushPull,
    /// Anti-entropy state reconciliation.
    AntiEntropy,
}

impl GossipProtocol {
    /// The coordination-type URI carried in contexts.
    pub(crate) fn coordination_type(&self) -> String {
        format!("{WSGOSSIP_NS}:{}", self.suffix())
    }

    fn suffix(&self) -> &'static str {
        match self {
            GossipProtocol::Push => "push",
            GossipProtocol::LazyPush => "lazy-push",
            GossipProtocol::Pull => "pull",
            GossipProtocol::PushPull => "push-pull",
            GossipProtocol::AntiEntropy => "anti-entropy",
        }
    }

    /// Parse back from a coordination-type URI.
    pub(crate) fn from_coordination_type(uri: &str) -> Result<Self, CoordError> {
        let suffix = uri
            .strip_prefix(WSGOSSIP_NS)
            .and_then(|rest| rest.strip_prefix(':'))
            .ok_or_else(|| CoordError::UnsupportedCoordinationType(uri.to_string()))?;
        Ok(match suffix {
            "push" => GossipProtocol::Push,
            "lazy-push" => GossipProtocol::LazyPush,
            "pull" => GossipProtocol::Pull,
            "push-pull" => GossipProtocol::PushPull,
            "anti-entropy" => GossipProtocol::AntiEntropy,
            _ => return Err(CoordError::UnsupportedCoordinationType(uri.to_string())),
        })
    }

    /// The engine style this protocol maps to.
    pub fn style(&self) -> GossipStyle {
        match self {
            GossipProtocol::Push => GossipStyle::EagerPush,
            GossipProtocol::LazyPush => GossipStyle::LazyPush,
            GossipProtocol::Pull => GossipStyle::Pull,
            GossipProtocol::PushPull => GossipStyle::PushPull,
            GossipProtocol::AntiEntropy => GossipStyle::AntiEntropy,
        }
    }
}

/// Gossip policy fixed at activation: the `f`/`r` parameters the
/// coordinator hands to participants.
#[derive(Debug, Clone, PartialEq, Eq)]
#[derive(Default)]
pub struct GossipPolicy {
    params: GossipParams,
}


impl GossipPolicy {
    /// Policy with explicit parameters.
    pub fn new(params: GossipParams) -> Self {
        GossipPolicy { params }
    }

    /// Policy sized for atomic delivery in a system of `n` nodes (the
    /// "adequate parameter configurations" the paper says the coordinator
    /// can compute from the subscriber list).
    pub fn atomic_for(n: usize) -> Self {
        GossipPolicy { params: GossipParams::atomic_for(n) }
    }

    /// The `f`/`r` parameters.
    pub fn params(&self) -> &GossipParams {
        &self.params
    }
}

/// A WS-Coordination context: created by Activation, propagated as a SOAP
/// header alongside every gossiped message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinationContext {
    identifier: String,
    coordination_type: String,
    registration_service: String,
    expires_millis: Option<u64>,
    policy: GossipPolicy,
}

impl CoordinationContext {
    /// A context with the given identity and gossip policy.
    pub fn new(
        identifier: impl Into<String>,
        protocol: GossipProtocol,
        registration_service: impl Into<String>,
        policy: GossipPolicy,
    ) -> Self {
        CoordinationContext {
            identifier: identifier.into(),
            coordination_type: protocol.coordination_type(),
            registration_service: registration_service.into(),
            expires_millis: None,
            policy,
        }
    }

    /// Builder: set the expiry (milliseconds of validity).
    pub fn with_expires(mut self, millis: u64) -> Self {
        self.expires_millis = Some(millis);
        self
    }

    /// The context identifier (a URI).
    pub fn identifier(&self) -> &str {
        &self.identifier
    }

    /// The gossip protocol, decoded from the coordination type.
    ///
    /// # Errors
    ///
    /// Fails when the type URI is not a WS-Gossip type.
    pub fn protocol(&self) -> Result<GossipProtocol, CoordError> {
        GossipProtocol::from_coordination_type(&self.coordination_type)
    }

    /// Address of the Registration service for this context.
    pub fn registration_service(&self) -> &str {
        &self.registration_service
    }

    /// The gossip policy (parameters) fixed at activation.
    pub fn policy(&self) -> &GossipPolicy {
        &self.policy
    }

    /// Serialise as the `wscoor:CoordinationContext` SOAP header block.
    pub fn to_header(&self) -> Element {
        let mut header = Element::in_ns("wscoor", WSCOOR_NS, "CoordinationContext");
        header.push_child(
            Element::in_ns("wscoor", WSCOOR_NS, "Identifier").with_text(self.identifier.clone()),
        );
        if let Some(expires) = self.expires_millis {
            header.push_child(
                Element::in_ns("wscoor", WSCOOR_NS, "Expires").with_text(expires.to_string()),
            );
        }
        header.push_child(
            Element::in_ns("wscoor", WSCOOR_NS, "CoordinationType")
                .with_text(self.coordination_type.clone()),
        );
        let mut reg = Element::in_ns("wscoor", WSCOOR_NS, "RegistrationService");
        reg.push_child(
            Element::in_ns("wsa", wsg_soap::WSA_NS, "Address")
                .with_text(self.registration_service.clone()),
        );
        header.push_child(reg);
        // WS-Gossip extension: the parameters, so any disseminator can
        // forward without a coordinator round-trip.
        let mut policy = Element::in_ns("wsg", WSGOSSIP_NS, "GossipPolicy");
        policy.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "Fanout")
                .with_text(self.policy.params().fanout().to_string()),
        );
        policy.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "Rounds")
                .with_text(self.policy.params().rounds().to_string()),
        );
        header.push_child(policy);
        header
    }

    /// Parse from the `wscoor:CoordinationContext` header block.
    ///
    /// # Errors
    ///
    /// Fails when mandatory children are missing or malformed.
    pub fn from_header(header: &Element) -> Result<Self, CoordError> {
        if !header.name().matches(Some(WSCOOR_NS), "CoordinationContext") {
            return Err(CoordError::Codec(format!(
                "expected CoordinationContext, found {}",
                header.name()
            )));
        }
        let identifier = header
            .child_ns(WSCOOR_NS, "Identifier")
            .map(|e| e.text())
            .ok_or_else(|| CoordError::Codec("missing Identifier".into()))?;
        let coordination_type = header
            .child_ns(WSCOOR_NS, "CoordinationType")
            .map(|e| e.text())
            .ok_or_else(|| CoordError::Codec("missing CoordinationType".into()))?;
        let registration_service = header
            .child_ns(WSCOOR_NS, "RegistrationService")
            .and_then(|r| r.child_ns(wsg_soap::WSA_NS, "Address"))
            .map(|a| a.text())
            .ok_or_else(|| CoordError::Codec("missing RegistrationService/Address".into()))?;
        let expires_millis = match header.child_ns(WSCOOR_NS, "Expires") {
            Some(e) => Some(
                e.text()
                    .parse::<u64>()
                    .map_err(|_| CoordError::Codec("invalid Expires".into()))?,
            ),
            None => None,
        };
        let policy = match header.child_ns(WSGOSSIP_NS, "GossipPolicy") {
            Some(p) => {
                let fanout = p
                    .child_ns(WSGOSSIP_NS, "Fanout")
                    .and_then(|f| f.text().parse::<usize>().ok())
                    .ok_or_else(|| CoordError::Codec("invalid GossipPolicy/Fanout".into()))?;
                let rounds = p
                    .child_ns(WSGOSSIP_NS, "Rounds")
                    .and_then(|r| r.text().parse::<u32>().ok())
                    .ok_or_else(|| CoordError::Codec("invalid GossipPolicy/Rounds".into()))?;
                GossipPolicy::new(GossipParams::new(fanout, rounds))
            }
            None => GossipPolicy::default(),
        };
        Ok(CoordinationContext {
            identifier,
            coordination_type,
            registration_service,
            expires_millis,
            policy,
        })
    }

    /// Whether this context has expired at virtual time `now`, counting
    /// from `created_at`.
    pub(crate) fn is_expired(&self, created_at: SimTime, now: SimTime) -> bool {
        match self.expires_millis {
            Some(millis) => now.since(created_at).as_millis() >= millis,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoordinationContext {
        CoordinationContext::new(
            "urn:uuid:ctx-1",
            GossipProtocol::Push,
            "http://coordinator/registration",
            GossipPolicy::new(GossipParams::new(5, 7)),
        )
        .with_expires(60_000)
    }

    #[test]
    fn header_roundtrip() {
        let ctx = sample();
        let parsed = CoordinationContext::from_header(&ctx.to_header()).unwrap();
        assert_eq!(parsed, ctx);
    }

    #[test]
    fn roundtrip_through_wire_xml() {
        let ctx = sample();
        let xml = ctx.to_header().to_xml_string();
        let element = Element::parse(&xml).unwrap();
        let parsed = CoordinationContext::from_header(&element).unwrap();
        assert_eq!(parsed, ctx);
    }

    #[test]
    fn protocol_mapping_bijective() {
        for protocol in [
            GossipProtocol::Push,
            GossipProtocol::LazyPush,
            GossipProtocol::Pull,
            GossipProtocol::PushPull,
            GossipProtocol::AntiEntropy,
        ] {
            let uri = protocol.coordination_type();
            assert_eq!(GossipProtocol::from_coordination_type(&uri).unwrap(), protocol);
        }
    }

    #[test]
    fn foreign_coordination_type_rejected() {
        let err = GossipProtocol::from_coordination_type(
            "http://docs.oasis-open.org/ws-tx/wsat/2006/06",
        )
        .unwrap_err();
        assert!(matches!(err, CoordError::UnsupportedCoordinationType(_)));
    }

    #[test]
    fn missing_identifier_rejected() {
        let mut header = sample().to_header();
        // Rebuild without Identifier.
        let no_id: Vec<_> = header
            .children()
            .into_iter()
            .filter(|c| c.local_name() != "Identifier")
            .cloned()
            .collect();
        header = Element::in_ns("wscoor", WSCOOR_NS, "CoordinationContext");
        for child in no_id {
            header.push_child(child);
        }
        assert!(matches!(
            CoordinationContext::from_header(&header),
            Err(CoordError::Codec(_))
        ));
    }

    #[test]
    fn expiry_semantics() {
        let ctx = sample(); // 60s validity
        let created = SimTime::from_secs(10);
        assert!(!ctx.is_expired(created, SimTime::from_secs(30)));
        assert!(ctx.is_expired(created, SimTime::from_secs(70)));
        let unbounded = CoordinationContext::new(
            "urn:uuid:ctx-2",
            GossipProtocol::Pull,
            "http://c/r",
            GossipPolicy::default(),
        );
        assert!(!unbounded.is_expired(created, SimTime::from_secs(10_000)));
    }

    #[test]
    fn policy_survives_header_without_extension() {
        // A context written by a non-gossip-aware WS-Coordination peer has
        // no GossipPolicy extension; defaults apply.
        let ctx = sample();
        let mut header = Element::in_ns("wscoor", WSCOOR_NS, "CoordinationContext");
        for child in ctx.to_header().children() {
            if child.local_name() != "GossipPolicy" {
                header.push_child(child.clone());
            }
        }
        let parsed = CoordinationContext::from_header(&header).unwrap();
        assert_eq!(parsed.policy(), &GossipPolicy::default());
    }
}
