//! The Registration service: `Register` / `RegisterResponse`.

use std::collections::BTreeMap;

use wsg_xml::Element;

use crate::error::CoordError;
use crate::{WSCOOR_NS, WSGOSSIP_NS};

/// What a participant receives when it registers for a gossip interaction:
/// the parameters to use and the peers to gossip to this round — "it is
/// thus capable of providing adequate parameter configurations and peers
/// for each gossip round" (paper §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipGrant {
    /// Fanout the participant should use.
    pub fanout: usize,
    /// Remaining-rounds budget.
    pub rounds: u32,
    /// Peer endpoints to forward to.
    pub peers: Vec<String>,
}

impl GossipGrant {
    /// Encode as a bare `wsg:GossipGrant` element (embeddable in a
    /// `RegisterResponse` or a `CreateCoordinationContextResponse`).
    pub(crate) fn to_element(&self) -> Element {
        let mut grant = Element::in_ns("wsg", WSGOSSIP_NS, "GossipGrant");
        grant.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "Fanout").with_text(self.fanout.to_string()),
        );
        grant.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "Rounds").with_text(self.rounds.to_string()),
        );
        let mut peers = Element::in_ns("wsg", WSGOSSIP_NS, "Peers");
        for peer in &self.peers {
            peers.push_child(Element::in_ns("wsg", WSGOSSIP_NS, "Peer").with_text(peer.clone()));
        }
        grant.push_child(peers);
        grant
    }

    /// The `RegisterResponse` body granting this to a participant of
    /// context `context_id`.
    pub fn to_register_response(&self, context_id: &str) -> Element {
        let mut resp = Element::in_ns("wscoor", WSCOOR_NS, "RegisterResponse");
        resp.push_child(self.to_element());
        resp.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "ContextIdentifier").with_text(context_id.to_string()),
        );
        resp
    }

    /// Decode a `RegisterResponse` body: the context it grants for, and
    /// the grant.
    ///
    /// # Errors
    ///
    /// Fails on structurally invalid responses.
    pub fn from_register_response(body: &Element) -> Result<(String, Self), CoordError> {
        let grant = Self::in_body(body)?;
        let context_id = body
            .child_ns(WSGOSSIP_NS, "ContextIdentifier")
            .map(|c| c.text())
            .ok_or_else(|| CoordError::Codec("missing ContextIdentifier".into()))?;
        Ok((context_id, grant))
    }

    /// Decode the `wsg:GossipGrant` child of a body.
    pub(crate) fn in_body(body: &Element) -> Result<Self, CoordError> {
        let grant = body
            .child_ns(WSGOSSIP_NS, "GossipGrant")
            .ok_or_else(|| CoordError::Codec("missing GossipGrant".into()))?;
        Self::from_element(grant)
    }

    /// Decode from a bare `wsg:GossipGrant` element.
    ///
    /// # Errors
    ///
    /// Fails on structurally invalid grants.
    pub(crate) fn from_element(grant: &Element) -> Result<Self, CoordError> {
        if !grant.name().matches(Some(WSGOSSIP_NS), "GossipGrant") {
            return Err(CoordError::Codec(format!(
                "expected GossipGrant, found {}",
                grant.name()
            )));
        }
        let fanout = grant
            .child_ns(WSGOSSIP_NS, "Fanout")
            .and_then(|f| f.text().parse().ok())
            .ok_or_else(|| CoordError::Codec("invalid Fanout".into()))?;
        let rounds = grant
            .child_ns(WSGOSSIP_NS, "Rounds")
            .and_then(|r| r.text().parse().ok())
            .ok_or_else(|| CoordError::Codec("invalid Rounds".into()))?;
        let peers = grant
            .child_ns(WSGOSSIP_NS, "Peers")
            .map(|p| p.children_named("Peer").iter().map(|e| e.text()).collect())
            .unwrap_or_default();
        Ok(GossipGrant { fanout, rounds, peers })
    }
}

/// The WS-Coordination Registration service specialised for gossip: keeps
/// the participant list per context and answers `Register` with a
/// [`GossipGrant`].
#[derive(Debug, Clone, Default)]
pub struct RegistrationService {
    // context id -> registered participant endpoints (insertion order)
    participants: BTreeMap<String, Vec<String>>,
    stats: RegistrationStats,
}

/// Monotone counters of Registration-service operations, exported as
/// the `wsg_coord_registrations_*` metrics (see [`crate::obs`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrationStats {
    /// First-time registrations.
    pub registered: u64,
    /// Idempotent re-registrations of an already-known participant.
    pub reregistrations: u64,
    /// Participants removed.
    pub deregistered: u64,
}

impl RegistrationService {
    /// An empty registration service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `participant` in `context`. Returns `true` when new,
    /// `false` for an idempotent re-registration.
    pub fn register(&mut self, context: &str, participant: impl Into<String>) -> bool {
        let participant = participant.into();
        let list = self.participants.entry(context.to_string()).or_default();
        if list.contains(&participant) {
            self.stats.reregistrations += 1;
            false
        } else {
            list.push(participant);
            self.stats.registered += 1;
            true
        }
    }

    /// Remove a participant (e.g. reported dead by membership).
    pub fn deregister(&mut self, context: &str, participant: &str) -> bool {
        match self.participants.get_mut(context) {
            Some(list) => {
                let before = list.len();
                list.retain(|p| p != participant);
                let removed = before != list.len();
                if removed {
                    self.stats.deregistered += 1;
                }
                removed
            }
            None => false,
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> &RegistrationStats {
        &self.stats
    }

    /// All participants of a context, in registration order.
    pub fn participants(&self, context: &str) -> &[String] {
        self.participants.get(context).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of participants registered in a context.
    pub fn participant_count(&self, context: &str) -> usize {
        self.participants(context).len()
    }

    /// All (context, participant) pairs — the replication snapshot.
    pub fn snapshot(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .participants
            .iter()
            .flat_map(|(context, list)| {
                list.iter().map(move |p| (context.clone(), p.clone()))
            })
            .collect();
        out.sort();
        out
    }

    /// Encode a `Register` request body.
    pub fn encode_register(context: &str, participant: &str) -> Element {
        let mut req = Element::in_ns("wscoor", WSCOOR_NS, "Register");
        req.push_child(
            Element::in_ns("wscoor", WSCOOR_NS, "ProtocolIdentifier")
                .with_text(format!("{WSGOSSIP_NS}:participant")),
        );
        let mut svc = Element::in_ns("wscoor", WSCOOR_NS, "ParticipantProtocolService");
        svc.push_child(
            Element::in_ns("wsa", wsg_soap::WSA_NS, "Address").with_text(participant.to_string()),
        );
        req.push_child(svc);
        req.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "ContextIdentifier").with_text(context.to_string()),
        );
        req
    }

    /// Decode a `Register` request body into `(context id, participant)`.
    ///
    /// # Errors
    ///
    /// Fails on structurally invalid requests.
    pub fn decode_register(body: &Element) -> Result<(String, String), CoordError> {
        if !body.name().matches(Some(WSCOOR_NS), "Register") {
            return Err(CoordError::Codec(format!("expected Register, found {}", body.name())));
        }
        let participant = body
            .child_ns(WSCOOR_NS, "ParticipantProtocolService")
            .and_then(|s| s.child_ns(wsg_soap::WSA_NS, "Address"))
            .map(|a| a.text())
            .ok_or_else(|| CoordError::Codec("missing ParticipantProtocolService".into()))?;
        let context = body
            .child_ns(WSGOSSIP_NS, "ContextIdentifier")
            .map(|c| c.text())
            .ok_or_else(|| CoordError::Codec("missing ContextIdentifier".into()))?;
        Ok((context, participant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let mut reg = RegistrationService::new();
        assert!(reg.register("ctx", "http://n1"));
        assert!(!reg.register("ctx", "http://n1"));
        assert_eq!(reg.participant_count("ctx"), 1);
    }

    #[test]
    fn deregister_removes() {
        let mut reg = RegistrationService::new();
        reg.register("ctx", "http://n1");
        reg.register("ctx", "http://n2");
        assert!(reg.deregister("ctx", "http://n1"));
        assert!(!reg.deregister("ctx", "http://n1"));
        assert_eq!(reg.participants("ctx"), ["http://n2".to_string()]);
    }

    #[test]
    fn contexts_are_isolated() {
        let mut reg = RegistrationService::new();
        reg.register("a", "http://n1");
        reg.register("b", "http://n2");
        assert_eq!(reg.participant_count("a"), 1);
        assert_eq!(reg.participant_count("b"), 1);
        assert_eq!(reg.participants("a"), ["http://n1".to_string()]);
    }

    #[test]
    fn register_codec_roundtrip() {
        let req = RegistrationService::encode_register("urn:ctx:1", "http://n7/gossip");
        let (context, participant) = RegistrationService::decode_register(&req).unwrap();
        assert_eq!(context, "urn:ctx:1");
        assert_eq!(participant, "http://n7/gossip");
    }

    #[test]
    fn grant_codec_roundtrip() {
        let grant = GossipGrant {
            fanout: 4,
            rounds: 6,
            peers: vec!["http://a".into(), "http://b".into()],
        };
        let parsed = GossipGrant::from_element(&grant.to_element()).unwrap();
        assert_eq!(parsed, grant);
        let wrapped = GossipGrant::from_register_response(&grant.to_register_response("urn:ctx:1")).unwrap();
        assert_eq!(wrapped, ("urn:ctx:1".to_string(), grant));
    }

    #[test]
    fn register_response_keeps_its_bytes() {
        let grant = GossipGrant {
            fanout: 3,
            rounds: 5,
            peers: vec!["http://node2/gossip".into(), "http://node3/gossip".into()],
        };
        assert_eq!(
            grant.to_register_response("urn:ws-gossip:ctx:0").to_xml_string(),
            "<wscoor:RegisterResponse xmlns:wscoor=\"http://docs.oasis-open.org/ws-tx/wscoor/2006/06\"><wsg:GossipGrant xmlns:wsg=\"urn:ws-gossip:2008\"><wsg:Fanout>3</wsg:Fanout><wsg:Rounds>5</wsg:Rounds><wsg:Peers><wsg:Peer>http://node2/gossip</wsg:Peer><wsg:Peer>http://node3/gossip</wsg:Peer></wsg:Peers></wsg:GossipGrant><wsg:ContextIdentifier xmlns:wsg=\"urn:ws-gossip:2008\">urn:ws-gossip:ctx:0</wsg:ContextIdentifier></wscoor:RegisterResponse>"
        );
        let mut anonymous = grant.to_register_response("urn:ws-gossip:ctx:0");
        assert_eq!(anonymous.remove_children("ContextIdentifier"), 1);
        assert!(GossipGrant::from_register_response(&anonymous).is_err(), "for no context");
    }

    #[test]
    fn grant_decodes_empty_peer_list() {
        let grant = GossipGrant { fanout: 1, rounds: 1, peers: vec![] };
        let parsed = GossipGrant::from_element(&grant.to_element()).unwrap();
        assert!(parsed.peers.is_empty());
    }

    #[test]
    fn decode_rejects_foreign_bodies() {
        assert!(RegistrationService::decode_register(&Element::new("x")).is_err());
        assert!(GossipGrant::from_element(&Element::new("x")).is_err());
    }
}
