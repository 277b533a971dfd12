//! Mapping between simulator node identities and service endpoint URIs.
//!
//! WS-* routes on URIs; the simulator routes on [`NodeId`]s. Endpoints are
//! synthesised as `http://node{N}/gossip` so the mapping is bijective and
//! needs no registry.

use wsg_net::{NodeId, PeerLiveness};

/// The service endpoint URI of a node.
///
/// ```
/// use ws_gossip::endpoint;
/// use wsg_net::NodeId;
///
/// assert_eq!(endpoint::endpoint_of(NodeId(3)), "http://node3/gossip");
/// ```
pub fn endpoint_of(node: NodeId) -> String {
    format!("http://node{}/gossip", node.index())
}

/// Parse a node identity back out of an endpoint URI (any path).
///
/// ```
/// use ws_gossip::endpoint;
/// use wsg_net::NodeId;
///
/// assert_eq!(endpoint::node_of("http://node7/registration"), Some(NodeId(7)));
/// assert_eq!(endpoint::node_of("http://elsewhere/svc"), None);
/// ```
pub fn node_of(endpoint: &str) -> Option<NodeId> {
    let rest = endpoint.strip_prefix("http://node")?;
    let digits_end = rest.find('/').unwrap_or(rest.len());
    rest[..digits_end].parse::<usize>().ok().map(NodeId)
}

/// Whether `endpoint` is a usable gossip destination per `liveness`:
/// endpoints outside the node-id scheme (external URIs) are not the
/// liveness plane's to veto.
pub(crate) fn is_live(liveness: &dyn PeerLiveness, endpoint: &str) -> bool {
    node_of(endpoint).is_none_or(|id| liveness.is_live(id))
}

/// The Activation service endpoint hosted by a coordinator node.
pub(crate) fn activation_endpoint(coordinator: NodeId) -> String {
    format!("http://node{}/activation", coordinator.index())
}

/// The Registration service endpoint hosted by a coordinator node.
pub fn registration_endpoint(coordinator: NodeId) -> String {
    format!("http://node{}/registration", coordinator.index())
}

/// The topic pseudo-destination a notification is logically addressed to
/// before the gossip layer re-routes it.
pub(crate) fn topic_uri(topic: &str) -> String {
    format!("urn:ws-gossip:topic:{topic}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bijective_for_service_endpoints() {
        for i in [0usize, 1, 9, 10, 123, 4096] {
            let node = NodeId(i);
            assert_eq!(node_of(&endpoint_of(node)), Some(node));
            assert_eq!(node_of(&activation_endpoint(node)), Some(node));
            assert_eq!(node_of(&registration_endpoint(node)), Some(node));
        }
    }

    #[test]
    fn rejects_foreign_uris() {
        assert_eq!(node_of("http://example.com/x"), None);
        assert_eq!(node_of("urn:ws-gossip:topic:quotes"), None);
        assert_eq!(node_of("http://nodeX/gossip"), None);
    }

    #[test]
    fn topic_uri_not_a_node() {
        assert_eq!(node_of(&topic_uri("quotes")), None);
    }
}
