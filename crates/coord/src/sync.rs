//! Coordinator-state synchronisation — the distributed Coordinator.
//!
//! Paper §3: "a distributed Coordinator is supported by WS-Coordination
//! and thus also by WS-Gossip, as the list of subscribers can be
//! maintained in a distributed fashion as proposed by WS-Membership."
//!
//! Coordinators replicate their subscription lists, participant
//! registrations and active contexts to each other by — fittingly —
//! gossip: each coordinator periodically sends a [`CoordinatorSync`]
//! snapshot to a random peer coordinator; merging is a commutative,
//! idempotent union (expiries merge by maximum), so the replicas converge.

use wsg_xml::Element;

use crate::context::CoordinationContext;
use crate::error::CoordError;
use crate::WSGOSSIP_NS;

/// A replication snapshot of one coordinator's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoordinatorSync {
    /// (topic, subscriber endpoint, expiry in virtual millis).
    pub subscriptions: Vec<(String, String, u64)>,
    /// (context id, participant endpoint).
    pub registrations: Vec<(String, String)>,
    /// Active contexts with their topics: (context, topic).
    pub contexts: Vec<(CoordinationContext, String)>,
}

impl CoordinatorSync {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total entries carried (for load accounting).
    pub fn len(&self) -> usize {
        self.subscriptions.len() + self.registrations.len() + self.contexts.len()
    }

    /// Whether the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encode as the `wsg:CoordinatorSync` body element.
    pub fn to_element(&self) -> Element {
        let mut body = Element::in_ns("wsg", WSGOSSIP_NS, "CoordinatorSync");
        for (topic, endpoint, expires) in &self.subscriptions {
            let mut sub = Element::in_ns("wsg", WSGOSSIP_NS, "Subscription");
            sub.set_attr("topic", topic.clone());
            sub.set_attr("endpoint", endpoint.clone());
            if *expires != u64::MAX {
                sub.set_attr("expires", expires.to_string());
            }
            body.push_child(sub);
        }
        for (context, participant) in &self.registrations {
            let mut reg = Element::in_ns("wsg", WSGOSSIP_NS, "Registration");
            reg.set_attr("context", context.clone());
            reg.set_attr("participant", participant.clone());
            body.push_child(reg);
        }
        for (context, topic) in &self.contexts {
            let mut entry = Element::in_ns("wsg", WSGOSSIP_NS, "ContextEntry");
            entry.set_attr("topic", topic.clone());
            entry.push_child(context.to_header());
            body.push_child(entry);
        }
        body
    }

    /// Decode from the `wsg:CoordinatorSync` body element.
    ///
    /// # Errors
    ///
    /// Fails on structurally invalid snapshots.
    pub fn from_element(body: &Element) -> Result<Self, CoordError> {
        if !body.name().matches(Some(WSGOSSIP_NS), "CoordinatorSync") {
            return Err(CoordError::Codec(format!(
                "expected CoordinatorSync, found {}",
                body.name()
            )));
        }
        let mut sync = CoordinatorSync::new();
        for child in body.children() {
            match child.local_name() {
                "Subscription" => {
                    let topic = child
                        .attr("topic")
                        .ok_or_else(|| CoordError::Codec("Subscription without topic".into()))?;
                    let endpoint = child
                        .attr("endpoint")
                        .ok_or_else(|| CoordError::Codec("Subscription without endpoint".into()))?;
                    let expires = match child.attr("expires") {
                        Some(raw) => raw
                            .parse()
                            .map_err(|_| CoordError::Codec("invalid expires".into()))?,
                        None => u64::MAX,
                    };
                    sync.subscriptions.push((topic.to_string(), endpoint.to_string(), expires));
                }
                "Registration" => {
                    let context = child
                        .attr("context")
                        .ok_or_else(|| CoordError::Codec("Registration without context".into()))?;
                    let participant = child.attr("participant").ok_or_else(|| {
                        CoordError::Codec("Registration without participant".into())
                    })?;
                    sync.registrations.push((context.to_string(), participant.to_string()));
                }
                "ContextEntry" => {
                    let topic = child
                        .attr("topic")
                        .ok_or_else(|| CoordError::Codec("ContextEntry without topic".into()))?
                        .to_string();
                    let header = child
                        .child_ns(crate::WSCOOR_NS, "CoordinationContext")
                        .ok_or_else(|| CoordError::Codec("ContextEntry without context".into()))?;
                    sync.contexts.push((CoordinationContext::from_header(header)?, topic));
                }
                _ => {}
            }
        }
        Ok(sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{GossipPolicy, GossipProtocol};

    fn sample() -> CoordinatorSync {
        CoordinatorSync {
            subscriptions: vec![
                ("quotes".into(), "http://node3/gossip".into(), u64::MAX),
                ("quotes".into(), "http://node4/gossip".into(), 90_000),
            ],
            registrations: vec![("urn:ws-gossip:ctx:0".into(), "http://node3/gossip".into())],
            contexts: vec![(
                CoordinationContext::new(
                    "urn:ws-gossip:ctx:0",
                    GossipProtocol::Push,
                    "http://node0/registration",
                    GossipPolicy::default(),
                ),
                "quotes".into(),
            )],
        }
    }

    #[test]
    fn element_roundtrip() {
        let sync = sample();
        let parsed = CoordinatorSync::from_element(&sync.to_element()).unwrap();
        assert_eq!(parsed, sync);
    }

    #[test]
    fn wire_roundtrip() {
        let sync = sample();
        let xml = sync.to_element().to_xml_string();
        let parsed = CoordinatorSync::from_element(&Element::parse(&xml).unwrap()).unwrap();
        assert_eq!(parsed, sync);
    }

    #[test]
    fn unbounded_expiry_omitted_and_restored() {
        let sync = sample();
        let xml = sync.to_element().to_xml_string();
        assert!(!xml.contains(&u64::MAX.to_string()), "MAX not serialized literally");
        let parsed = CoordinatorSync::from_element(&Element::parse(&xml).unwrap()).unwrap();
        assert_eq!(parsed.subscriptions[0].2, u64::MAX);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let sync = CoordinatorSync::new();
        assert!(sync.is_empty());
        let parsed = CoordinatorSync::from_element(&sync.to_element()).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn rejects_foreign_root() {
        assert!(CoordinatorSync::from_element(&Element::new("x")).is_err());
    }

    #[test]
    fn rejects_malformed_entries() {
        let mut body = Element::in_ns("wsg", WSGOSSIP_NS, "CoordinatorSync");
        body.push_child(Element::in_ns("wsg", WSGOSSIP_NS, "Subscription")); // no attrs
        assert!(CoordinatorSync::from_element(&body).is_err());
    }
}
