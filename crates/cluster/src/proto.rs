//! The membership SOAP binding: `Join` / `JoinResponse` / `Heartbeat` /
//! `Leave` envelopes, served at every node's `/membership` target.
//!
//! The wire shape mirrors WS-Membership's spirit through the workspace's
//! own SOAP stack: one body wrapper element per operation, each carrying
//! `Member` entries that bind a node id to its socket address and latest
//! heartbeat counter. Addresses ride along so membership knowledge spreads
//! transitively — a node that learns about a member from gossip can dial
//! it without any central registry.

use std::net::SocketAddr;

use wsg_net::{cov, NodeId};
use wsg_soap::{Envelope, MessageHeaders};
use wsg_xml::Element;

/// Namespace of the cluster membership operations.
pub(crate) const WSCLUSTER_NS: &str = "urn:ws-membership:2008";

/// The request target every cluster node's HTTP server answers membership
/// envelopes on (`/gossip` stays reserved for the application protocol).
pub(crate) const MEMBERSHIP_TARGET: &str = "/membership";

/// One member's identity, address and heartbeat evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberEntry {
    /// The member's node id.
    pub id: NodeId,
    /// Where its HTTP server listens (or listened, for stale evidence).
    pub addr: SocketAddr,
    /// Freshest known heartbeat counter.
    pub heartbeat: u64,
}

impl MemberEntry {
    fn to_element(self) -> Element {
        Element::in_ns("wsm", WSCLUSTER_NS, "Member")
            .with_attr("id", self.id.index().to_string())
            .with_attr("addr", self.addr.to_string())
            .with_attr("heartbeat", self.heartbeat.to_string())
    }

    fn from_element(element: &Element) -> Result<Self, ProtoError> {
        let field = |name: &str| {
            element.attr(name).ok_or_else(|| {
                cov!();
                ProtoError(format!("Member missing @{name}"))
            })
        };
        let id = field("id")?.parse::<usize>().map_err(|_| {
            cov!();
            ProtoError("unparseable member id".into())
        })?;
        let addr = field("addr")?.parse::<SocketAddr>().map_err(|_| {
            cov!();
            ProtoError("unparseable member addr".into())
        })?;
        let heartbeat = field("heartbeat")?.parse::<u64>().map_err(|_| {
            cov!();
            ProtoError("unparseable member heartbeat".into())
        })?;
        cov!();
        Ok(MemberEntry { id: NodeId(id), addr, heartbeat })
    }
}

/// A membership-plane message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterMessage {
    /// A node introduces itself to a seed member.
    Join(MemberEntry),
    /// The seed's synchronous answer: its whole current member list.
    JoinResponse(Vec<MemberEntry>),
    /// Periodic anti-entropy: the sender's non-dead view snapshot.
    Heartbeat(Vec<MemberEntry>),
    /// A graceful departure announcement (tombstones the member).
    Leave(MemberEntry),
}

/// A malformed membership envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster protocol: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

impl ClusterMessage {
    /// The WS-Addressing action URI of this operation.
    pub fn action(&self) -> String {
        format!("{WSCLUSTER_NS}:{}", self.operation())
    }

    /// The body wrapper element's local name.
    pub fn operation(&self) -> &'static str {
        match self {
            ClusterMessage::Join(_) => "Join",
            ClusterMessage::JoinResponse(_) => "JoinResponse",
            ClusterMessage::Heartbeat(_) => "Heartbeat",
            ClusterMessage::Leave(_) => "Leave",
        }
    }

    fn entries(&self) -> Vec<MemberEntry> {
        match self {
            ClusterMessage::Join(entry) | ClusterMessage::Leave(entry) => vec![*entry],
            ClusterMessage::JoinResponse(entries) | ClusterMessage::Heartbeat(entries) => {
                entries.clone()
            }
        }
    }

    /// Serialize as a one-way SOAP envelope addressed to `to`.
    pub fn to_envelope(&self, to: impl Into<String>) -> Envelope {
        let mut body = Element::in_ns("wsm", WSCLUSTER_NS, self.operation());
        for entry in self.entries() {
            body.push_child(entry.to_element());
        }
        Envelope::request(MessageHeaders::request(to, self.action()), body)
    }

    /// Decode a membership envelope.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] when the body is absent, the operation unknown, or a
    /// `Member` entry malformed.
    pub fn from_envelope(envelope: &Envelope) -> Result<Self, ProtoError> {
        let body = envelope.body().ok_or_else(|| {
            cov!();
            ProtoError("empty body".into())
        })?;
        let entries: Result<Vec<MemberEntry>, ProtoError> = body
            .children()
            .into_iter()
            .filter(|child| child.local_name() == "Member")
            .map(MemberEntry::from_element)
            .collect();
        let entries = entries?;
        let single = |op: &str| {
            entries.first().copied().ok_or_else(|| {
                cov!();
                ProtoError(format!("{op} without a Member entry"))
            })
        };
        match body.local_name() {
            "Join" => {
                cov!();
                Ok(ClusterMessage::Join(single("Join")?))
            }
            "JoinResponse" => {
                cov!();
                Ok(ClusterMessage::JoinResponse(entries))
            }
            "Heartbeat" => {
                cov!();
                Ok(ClusterMessage::Heartbeat(entries))
            }
            "Leave" => {
                cov!();
                Ok(ClusterMessage::Leave(single("Leave")?))
            }
            other => {
                cov!();
                Err(ProtoError(format!("unknown operation '{other}'")))
            }
        }
    }
}

/// The `To` URI a membership envelope for `addr` is addressed with.
pub fn membership_uri(addr: SocketAddr) -> String {
    format!("http://{addr}{MEMBERSHIP_TARGET}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: usize, port: u16, heartbeat: u64) -> MemberEntry {
        MemberEntry {
            id: NodeId(id),
            addr: format!("127.0.0.1:{port}").parse().unwrap(),
            heartbeat,
        }
    }

    #[test]
    fn every_operation_round_trips_through_xml() {
        let messages = [
            ClusterMessage::Join(entry(4, 9001, 0)),
            ClusterMessage::JoinResponse(vec![entry(0, 9000, 17), entry(4, 9001, 0)]),
            ClusterMessage::Heartbeat(vec![entry(0, 9000, 18), entry(1, 9002, 3)]),
            ClusterMessage::Leave(entry(1, 9002, 5)),
        ];
        for message in messages {
            let xml = message.to_envelope("http://127.0.0.1:9000/membership").to_xml();
            let parsed = Envelope::parse(&xml).expect("well-formed envelope");
            assert_eq!(parsed.addressing().action(), Some(message.action().as_str()));
            assert_eq!(ClusterMessage::from_envelope(&parsed).unwrap(), message);
        }
    }

    #[test]
    fn heartbeat_round_trips_empty_entry_lists() {
        let message = ClusterMessage::Heartbeat(Vec::new());
        let xml = message.to_envelope("http://x/membership").to_xml();
        let parsed = Envelope::parse(&xml).unwrap();
        assert_eq!(ClusterMessage::from_envelope(&parsed).unwrap(), message);
    }

    #[test]
    fn malformed_entries_are_errors_not_panics() {
        let body = Element::in_ns("wsm", WSCLUSTER_NS, "Join").with_child(
            Element::in_ns("wsm", WSCLUSTER_NS, "Member")
                .with_attr("id", "not-a-number")
                .with_attr("addr", "127.0.0.1:1")
                .with_attr("heartbeat", "0"),
        );
        let envelope =
            Envelope::request(MessageHeaders::request("http://x/membership", "urn:x"), body);
        assert!(ClusterMessage::from_envelope(&envelope).is_err());

        let empty_join = Envelope::request(
            MessageHeaders::request("http://x/membership", "urn:x"),
            Element::in_ns("wsm", WSCLUSTER_NS, "Join"),
        );
        assert!(ClusterMessage::from_envelope(&empty_join).is_err());

        let unknown = Envelope::request(
            MessageHeaders::request("http://x/membership", "urn:x"),
            Element::in_ns("wsm", WSCLUSTER_NS, "Promote"),
        );
        assert!(ClusterMessage::from_envelope(&unknown).is_err());
    }

    #[test]
    fn membership_uri_names_the_target() {
        assert_eq!(
            membership_uri("127.0.0.1:4321".parse().unwrap()),
            "http://127.0.0.1:4321/membership"
        );
    }
}
