//! Subscription management — the list the Coordinator role "manages"
//! (paper §3, Figure 1: consumers `subscribe` before dissemination).

use std::collections::BTreeMap;

use wsg_xml::Element;

use crate::error::CoordError;
use crate::WSGOSSIP_NS;

/// Per-topic subscriber lists, WS-Eventing-flavoured: consumers subscribe
/// with their endpoint and an optional expiry; the coordinator seeds
/// dissemination (and computes "adequate parameter configurations" from
/// the subscriber count) from this list.
///
/// Subscription keys are WS-Topics-style [`TopicFilter`](crate::TopicFilter)s: an exact path
/// subscribes to one topic, `market/*` to every direct child, and
/// `market/**` to the whole subtree. [`SubscriptionList::subscribers`]
/// takes a *concrete* topic and unions every matching filter.
#[derive(Debug, Clone, Default)]
pub struct SubscriptionList {
    // topic -> (endpoint -> expiry in virtual millis, u64::MAX = unbounded)
    topics: BTreeMap<String, BTreeMap<String, u64>>,
    stats: SubscriptionStats,
}

/// Monotone counters of subscription operations, exported as the
/// `wsg_coord_subscri*` metrics (see [`crate::obs`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// First-time subscriptions.
    pub subscribed: u64,
    /// Lease renewals (re-subscribe of a live entry).
    pub renewed: u64,
    /// Replicated subscriptions merged in (new or lease-extending).
    pub merged: u64,
    /// Explicit unsubscribes that removed an entry.
    pub unsubscribed: u64,
    /// Subscriptions dropped by expiry collection.
    pub expired: u64,
}

impl SubscriptionList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribe `endpoint` to `topic` until `expires_at_millis` (virtual
    /// time; `u64::MAX` for unbounded). Re-subscribing renews the expiry.
    /// Returns `true` when the subscription was new.
    pub fn subscribe(
        &mut self,
        topic: &str,
        endpoint: impl Into<String>,
        expires_at_millis: u64,
    ) -> bool {
        let new = self
            .topics
            .entry(topic.to_string())
            .or_default()
            .insert(endpoint.into(), expires_at_millis)
            .is_none();
        if new {
            self.stats.subscribed += 1;
        } else {
            self.stats.renewed += 1;
        }
        new
    }

    /// Operation counters.
    pub fn stats(&self) -> &SubscriptionStats {
        &self.stats
    }

    /// Merge a replicated subscription: keeps the *later* expiry, so
    /// merging snapshots is commutative and idempotent (the distributed
    /// coordinator's convergence requirement). Returns `true` when the
    /// entry was new or its expiry extended.
    pub fn merge_subscription(
        &mut self,
        topic: &str,
        endpoint: impl Into<String>,
        expires_at_millis: u64,
    ) -> bool {
        let subs = self.topics.entry(topic.to_string()).or_default();
        let endpoint = endpoint.into();
        let changed = match subs.get_mut(&endpoint) {
            Some(current) if *current >= expires_at_millis => false,
            Some(current) => {
                *current = expires_at_millis;
                true
            }
            None => {
                subs.insert(endpoint, expires_at_millis);
                true
            }
        };
        if changed {
            self.stats.merged += 1;
        }
        changed
    }

    /// All (topic, endpoint, expiry) entries — the replication snapshot.
    pub fn snapshot(&self) -> Vec<(String, String, u64)> {
        let mut out: Vec<(String, String, u64)> = self
            .topics
            .iter()
            .flat_map(|(topic, subs)| {
                subs.iter()
                    .map(move |(endpoint, expiry)| (topic.clone(), endpoint.clone(), *expiry))
            })
            .collect();
        out.sort();
        out
    }

    /// Remove a subscription; `true` when something was removed.
    pub fn unsubscribe(&mut self, topic: &str, endpoint: &str) -> bool {
        let removed = self
            .topics
            .get_mut(topic)
            .map(|subs| subs.remove(endpoint).is_some())
            .unwrap_or(false);
        if removed {
            self.stats.unsubscribed += 1;
        }
        removed
    }

    /// Active subscribers of a **concrete** topic at virtual time
    /// `now_millis`, unioning every subscription filter that matches;
    /// sorted and deduplicated for determinism.
    pub fn subscribers(&self, topic: &str, now_millis: u64) -> Vec<String> {
        let mut list: Vec<String> = self
            .topics
            .iter()
            .filter(|(key, _)| Self::key_matches(key, topic))
            .flat_map(|(_, subs)| {
                subs.iter()
                    .filter(|(_, &expiry)| expiry > now_millis)
                    .map(|(endpoint, _)| endpoint.clone())
            })
            .collect();
        list.sort();
        list.dedup();
        list
    }

    /// Whether a stored subscription key (an exact path or a wildcard
    /// filter) covers the concrete `topic`. Unparseable keys fall back to
    /// literal equality, so historical plain-string topics keep working.
    fn key_matches(key: &str, topic: &str) -> bool {
        crate::topics::covers(key, topic)
    }

    /// Number of active subscribers.
    pub fn subscriber_count(&self, topic: &str, now_millis: u64) -> usize {
        self.subscribers(topic, now_millis).len()
    }

    /// Drop expired subscriptions; returns how many were removed.
    pub fn expire(&mut self, now_millis: u64) -> usize {
        let mut removed = 0;
        for subs in self.topics.values_mut() {
            let before = subs.len();
            subs.retain(|_, &mut expiry| expiry > now_millis);
            removed += before - subs.len();
        }
        self.topics.retain(|_, subs| !subs.is_empty());
        self.stats.expired += removed as u64;
        removed
    }

    /// All topics with at least one subscriber.
    pub fn topics(&self) -> Vec<&str> {
        let mut topics: Vec<&str> = self.topics.keys().map(String::as_str).collect();
        topics.sort();
        topics
    }

    /// Encode a `Subscribe` request body.
    pub fn encode_subscribe(topic: &str, endpoint: &str, expires_at_millis: u64) -> Element {
        let mut req = Element::in_ns("wsg", WSGOSSIP_NS, "Subscribe");
        req.push_child(Element::in_ns("wsg", WSGOSSIP_NS, "Topic").with_text(topic.to_string()));
        req.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "Endpoint").with_text(endpoint.to_string()),
        );
        if expires_at_millis != u64::MAX {
            req.push_child(
                Element::in_ns("wsg", WSGOSSIP_NS, "Expires")
                    .with_text(expires_at_millis.to_string()),
            );
        }
        req
    }

    /// Encode the `SubscribeResponse` acknowledgement body.
    pub fn encode_subscribe_response() -> Element {
        Element::in_ns("wsg", WSGOSSIP_NS, "SubscribeResponse")
    }

    /// Decode a `Subscribe` request into `(topic, endpoint, expiry)`.
    ///
    /// # Errors
    ///
    /// Fails on structurally invalid requests.
    pub fn decode_subscribe(body: &Element) -> Result<(String, String, u64), CoordError> {
        if !body.name().matches(Some(WSGOSSIP_NS), "Subscribe") {
            return Err(CoordError::Codec(format!("expected Subscribe, found {}", body.name())));
        }
        let topic = body
            .child_ns(WSGOSSIP_NS, "Topic")
            .map(|t| t.text())
            .ok_or_else(|| CoordError::Codec("missing Topic".into()))?;
        let endpoint = body
            .child_ns(WSGOSSIP_NS, "Endpoint")
            .map(|e| e.text())
            .ok_or_else(|| CoordError::Codec("missing Endpoint".into()))?;
        let expires = match body.child_ns(WSGOSSIP_NS, "Expires") {
            Some(e) => e
                .text()
                .parse::<u64>()
                .map_err(|_| CoordError::Codec("invalid Expires".into()))?,
            None => u64::MAX,
        };
        Ok((topic, endpoint, expires))
    }
}

impl SubscriptionList {
    /// Encode an `Unsubscribe` request body.
    pub fn encode_unsubscribe(topic: &str, endpoint: &str) -> Element {
        let mut req = Element::in_ns("wsg", WSGOSSIP_NS, "Unsubscribe");
        req.push_child(Element::in_ns("wsg", WSGOSSIP_NS, "Topic").with_text(topic.to_string()));
        req.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "Endpoint").with_text(endpoint.to_string()),
        );
        req
    }

    /// Decode an `Unsubscribe` request into `(topic, endpoint)`.
    ///
    /// # Errors
    ///
    /// Fails on structurally invalid requests.
    pub fn decode_unsubscribe(body: &Element) -> Result<(String, String), CoordError> {
        if !body.name().matches(Some(WSGOSSIP_NS), "Unsubscribe") {
            return Err(CoordError::Codec(format!(
                "expected Unsubscribe, found {}",
                body.name()
            )));
        }
        let topic = body
            .child_ns(WSGOSSIP_NS, "Topic")
            .map(|t| t.text())
            .ok_or_else(|| CoordError::Codec("missing Topic".into()))?;
        let endpoint = body
            .child_ns(WSGOSSIP_NS, "Endpoint")
            .map(|e| e.text())
            .ok_or_else(|| CoordError::Codec("missing Endpoint".into()))?;
        Ok((topic, endpoint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_unsubscribe() {
        let mut list = SubscriptionList::new();
        assert!(list.subscribe("ticks", "http://n1", u64::MAX));
        assert!(!list.subscribe("ticks", "http://n1", u64::MAX), "renewal is not new");
        assert!(list.subscribe("ticks", "http://n2", u64::MAX));
        assert_eq!(list.subscriber_count("ticks", 0), 2);
        assert!(list.unsubscribe("ticks", "http://n1"));
        assert!(!list.unsubscribe("ticks", "http://n1"));
        assert_eq!(list.subscribers("ticks", 0), ["http://n2".to_string()]);
    }

    #[test]
    fn topics_are_isolated() {
        let mut list = SubscriptionList::new();
        list.subscribe("a", "http://n1", u64::MAX);
        list.subscribe("b", "http://n2", u64::MAX);
        assert_eq!(list.subscribers("a", 0), ["http://n1".to_string()]);
        assert_eq!(list.topics(), ["a", "b"]);
    }

    #[test]
    fn expiry_excludes_and_collects() {
        let mut list = SubscriptionList::new();
        list.subscribe("t", "http://n1", 1_000);
        list.subscribe("t", "http://n2", u64::MAX);
        assert_eq!(list.subscriber_count("t", 500), 2);
        assert_eq!(list.subscriber_count("t", 1_000), 1, "expiry is exclusive");
        assert_eq!(list.expire(2_000), 1);
        assert_eq!(list.subscribers("t", 0), ["http://n2".to_string()]);
    }

    #[test]
    fn renewal_extends_expiry() {
        let mut list = SubscriptionList::new();
        list.subscribe("t", "http://n1", 1_000);
        list.subscribe("t", "http://n1", 5_000);
        assert_eq!(list.subscriber_count("t", 2_000), 1);
    }

    #[test]
    fn subscribe_codec_roundtrip() {
        let req = SubscriptionList::encode_subscribe("ticks", "http://n3", 9_000);
        let (topic, endpoint, expires) = SubscriptionList::decode_subscribe(&req).unwrap();
        assert_eq!((topic.as_str(), endpoint.as_str(), expires), ("ticks", "http://n3", 9_000));
    }

    #[test]
    fn subscribe_codec_unbounded() {
        let req = SubscriptionList::encode_subscribe("ticks", "http://n3", u64::MAX);
        let (_, _, expires) = SubscriptionList::decode_subscribe(&req).unwrap();
        assert_eq!(expires, u64::MAX);
    }

    #[test]
    fn decode_rejects_foreign_bodies() {
        assert!(SubscriptionList::decode_subscribe(&Element::new("x")).is_err());
        assert!(SubscriptionList::decode_unsubscribe(&Element::new("x")).is_err());
    }

    #[test]
    fn unsubscribe_codec_roundtrip() {
        let req = SubscriptionList::encode_unsubscribe("ticks", "http://n2");
        let (topic, endpoint) = SubscriptionList::decode_unsubscribe(&req).unwrap();
        assert_eq!((topic.as_str(), endpoint.as_str()), ("ticks", "http://n2"));
    }

    #[test]
    fn merge_subscription_takes_later_expiry() {
        let mut list = SubscriptionList::new();
        assert!(list.merge_subscription("t", "http://n1", 100));
        assert!(!list.merge_subscription("t", "http://n1", 50), "older expiry ignored");
        assert!(list.merge_subscription("t", "http://n1", 200));
        assert_eq!(list.subscriber_count("t", 150), 1);
    }

    #[test]
    fn wildcard_filters_union_into_subscribers() {
        let mut list = SubscriptionList::new();
        list.subscribe("market/nyse/ACME", "http://exact", u64::MAX);
        list.subscribe("market/*/ACME", "http://one-star", u64::MAX);
        list.subscribe("market/**", "http://subtree", u64::MAX);
        list.subscribe("weather/**", "http://other", u64::MAX);
        let subs = list.subscribers("market/nyse/ACME", 0);
        assert_eq!(
            subs,
            ["http://exact", "http://one-star", "http://subtree"]
        );
        assert_eq!(list.subscribers("market/lse", 0), ["http://subtree"]);
        assert_eq!(list.subscribers("weather/oslo", 0), ["http://other"]);
        assert!(list.subscribers("bonds", 0).is_empty());
    }

    #[test]
    fn same_endpoint_through_multiple_filters_deduplicated() {
        let mut list = SubscriptionList::new();
        list.subscribe("a/**", "http://n1", u64::MAX);
        list.subscribe("a/b", "http://n1", u64::MAX);
        assert_eq!(list.subscribers("a/b", 0), ["http://n1"]);
    }

    #[test]
    fn snapshot_lists_everything_sorted() {
        let mut list = SubscriptionList::new();
        list.subscribe("b", "http://n2", 5);
        list.subscribe("a", "http://n1", u64::MAX);
        let snap = list.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "a");
    }
}
