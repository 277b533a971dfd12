//! The Activation service: `CreateCoordinationContext`.

use std::collections::BTreeMap;

use wsg_net::SimTime;
use wsg_xml::Element;

use crate::context::{CoordinationContext, GossipPolicy, GossipProtocol};
use crate::error::CoordError;
use crate::WSCOOR_NS;

/// The WS-Coordination Activation service, specialised for gossip
/// coordination types.
///
/// An Initiator calls [`ActivationService::create_context`] before its
/// first notification; the returned [`CoordinationContext`] travels in the
/// header of every disseminated message, telling receivers where to
/// register and with what parameters to gossip.
#[derive(Debug, Clone)]
pub struct ActivationService {
    activation_address: String,
    registration_address: String,
    next_context: u64,
    // context id -> (context, creation time)
    active: BTreeMap<String, (CoordinationContext, SimTime)>,
    stats: ActivationStats,
}

/// Monotone counters of Activation-service operations, exported as the
/// `wsg_coord_contexts_*` metrics (see [`crate::obs`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivationStats {
    /// Contexts minted by `CreateCoordinationContext`.
    pub created: u64,
    /// Contexts adopted from peer coordinators (first sighting only).
    pub adopted: u64,
    /// Contexts dropped by expiry collection.
    pub expired: u64,
}

impl ActivationService {
    /// A service advertising the given endpoints.
    pub fn new(
        activation_address: impl Into<String>,
        registration_address: impl Into<String>,
    ) -> Self {
        ActivationService {
            activation_address: activation_address.into(),
            registration_address: registration_address.into(),
            next_context: 0,
            active: BTreeMap::new(),
            stats: ActivationStats::default(),
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> &ActivationStats {
        &self.stats
    }

    /// The Activation endpoint address.
    pub fn address(&self) -> &str {
        &self.activation_address
    }

    /// Handle `CreateCoordinationContext`: mint a fresh context for the
    /// requested gossip protocol with the given policy.
    pub fn create_context(
        &mut self,
        protocol: GossipProtocol,
        policy: GossipPolicy,
        now: SimTime,
    ) -> CoordinationContext {
        let identifier = format!("urn:ws-gossip:ctx:{}", self.next_context);
        self.next_context += 1;
        self.stats.created += 1;
        let context = CoordinationContext::new(
            identifier.clone(),
            protocol,
            self.registration_address.clone(),
            policy,
        );
        self.active.insert(identifier, (context.clone(), now));
        context
    }

    /// Adopt a context replicated from a peer coordinator (distributed
    /// coordinator mode). Idempotent; keeps the earliest creation time.
    pub fn adopt(&mut self, context: CoordinationContext, created_at: SimTime) {
        let key = context.identifier().to_string();
        if !self.active.contains_key(&key) {
            self.stats.adopted += 1;
            self.active.insert(key, (context, created_at));
        }
    }

    /// All active contexts — the replication snapshot.
    pub fn snapshot(&self) -> Vec<CoordinationContext> {
        let mut out: Vec<CoordinationContext> =
            self.active.values().map(|(c, _)| c.clone()).collect();
        out.sort_by(|a, b| a.identifier().cmp(b.identifier()));
        out
    }

    /// Look up an active (non-expired) context.
    ///
    /// # Errors
    ///
    /// Returns [`CoordError::UnknownContext`] for unknown or expired ids.
    pub fn lookup(&self, identifier: &str, now: SimTime) -> Result<&CoordinationContext, CoordError> {
        match self.active.get(identifier) {
            Some((context, created)) if !context.is_expired(*created, now) => Ok(context),
            _ => Err(CoordError::UnknownContext(identifier.to_string())),
        }
    }

    /// Drop expired contexts; returns how many were removed.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.active.len();
        self.active.retain(|_, (context, created)| !context.is_expired(*created, now));
        let removed = before - self.active.len();
        self.stats.expired += removed as u64;
        removed
    }

    /// Number of active contexts.
    pub(crate) fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Decode a `CreateCoordinationContext` request body.
    ///
    /// # Errors
    ///
    /// Fails when the element is not a well-formed request.
    pub fn decode_request(body: &Element) -> Result<GossipProtocol, CoordError> {
        if !body.name().matches(Some(WSCOOR_NS), "CreateCoordinationContext") {
            return Err(CoordError::Codec(format!(
                "expected CreateCoordinationContext, found {}",
                body.name()
            )));
        }
        let uri = body
            .child_ns(WSCOOR_NS, "CoordinationType")
            .map(|e| e.text())
            .ok_or_else(|| CoordError::Codec("missing CoordinationType".into()))?;
        GossipProtocol::from_coordination_type(&uri)
    }

    /// Encode a `CreateCoordinationContext` request body.
    pub fn encode_request(protocol: GossipProtocol) -> Element {
        let mut req = Element::in_ns("wscoor", WSCOOR_NS, "CreateCoordinationContext");
        req.push_child(
            Element::in_ns("wscoor", WSCOOR_NS, "CoordinationType")
                .with_text(protocol.coordination_type()),
        );
        req
    }

    /// Encode the `CreateCoordinationContextResponse` body embedding the
    /// context.
    pub fn encode_response(context: &CoordinationContext) -> Element {
        let mut resp =
            Element::in_ns("wscoor", WSCOOR_NS, "CreateCoordinationContextResponse");
        resp.push_child(context.to_header());
        resp
    }

    /// Decode a `CreateCoordinationContextResponse` body.
    ///
    /// # Errors
    ///
    /// Fails when the embedded context is missing or malformed.
    pub fn decode_response(body: &Element) -> Result<CoordinationContext, CoordError> {
        if !body
            .name()
            .matches(Some(WSCOOR_NS), "CreateCoordinationContextResponse")
        {
            return Err(CoordError::Codec(format!(
                "expected CreateCoordinationContextResponse, found {}",
                body.name()
            )));
        }
        let ctx = body
            .child_ns(WSCOOR_NS, "CoordinationContext")
            .ok_or_else(|| CoordError::Codec("missing CoordinationContext".into()))?;
        CoordinationContext::from_header(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_gossip::GossipParams;

    fn service() -> ActivationService {
        ActivationService::new("http://c/activation", "http://c/registration")
    }

    #[test]
    fn create_yields_unique_identifiers() {
        let mut s = service();
        let a = s.create_context(GossipProtocol::Push, GossipPolicy::default(), SimTime::ZERO);
        let b = s.create_context(GossipProtocol::Push, GossipPolicy::default(), SimTime::ZERO);
        assert_ne!(a.identifier(), b.identifier());
        assert_eq!(s.active_count(), 2);
    }

    #[test]
    fn lookup_finds_active_context() {
        let mut s = service();
        let ctx = s.create_context(GossipProtocol::Pull, GossipPolicy::default(), SimTime::ZERO);
        let found = s.lookup(ctx.identifier(), SimTime::from_secs(1)).unwrap();
        assert_eq!(found.identifier(), ctx.identifier());
        assert!(s.lookup("urn:nope", SimTime::ZERO).is_err());
    }

    #[test]
    fn expired_contexts_rejected_and_collected() {
        let mut s = service();
        let ctx = s
            .create_context(GossipProtocol::Push, GossipPolicy::default(), SimTime::ZERO);
        // Manually re-insert with an expiry for the test.
        let bounded = CoordinationContext::new(
            ctx.identifier(),
            GossipProtocol::Push,
            "http://c/registration",
            GossipPolicy::default(),
        )
        .with_expires(1_000);
        s.active
            .insert(ctx.identifier().to_string(), (bounded, SimTime::ZERO));
        assert!(s.lookup(ctx.identifier(), SimTime::from_millis(500)).is_ok());
        assert!(s.lookup(ctx.identifier(), SimTime::from_secs(2)).is_err());
        assert_eq!(s.expire(SimTime::from_secs(2)), 1);
        assert_eq!(s.active_count(), 0);
    }

    #[test]
    fn request_codec_roundtrip() {
        let req = ActivationService::encode_request(GossipProtocol::LazyPush);
        assert_eq!(
            ActivationService::decode_request(&req).unwrap(),
            GossipProtocol::LazyPush
        );
    }

    #[test]
    fn response_codec_roundtrip() {
        let mut s = service();
        let ctx = s.create_context(
            GossipProtocol::PushPull,
            GossipPolicy::new(GossipParams::new(6, 9)),
            SimTime::ZERO,
        );
        let resp = ActivationService::encode_response(&ctx);
        let parsed = ActivationService::decode_response(&resp).unwrap();
        assert_eq!(parsed, ctx);
        assert_eq!(parsed.policy().params().fanout(), 6);
    }

    #[test]
    fn decode_rejects_wrong_elements() {
        let wrong = Element::new("NotARequest");
        assert!(ActivationService::decode_request(&wrong).is_err());
        assert!(ActivationService::decode_response(&wrong).is_err());
    }
}
