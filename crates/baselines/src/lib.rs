//! # wsg-baselines — non-gossip dissemination comparators
//!
//! The paper's motivation (§1) contrasts gossip with monolithic,
//! centralized dissemination (e.g. the Swiss Exchange system \[8\]) and
//! with classic reliable multicast \[2\]. These baselines make those
//! comparisons concrete; each implements [`wsg_net::Protocol`] so it runs
//! under the identical fault injection as the gossip engine:
//!
//! * [`broker::BrokerNode`] — a centralized reliable broker: publishers
//!   send to one broker node which unicasts to every subscriber and
//!   retransmits until acknowledged (the ack-based reliable multicast
//!   whose throughput collapses under perturbation — experiment E5);
//! * [`direct::DirectNode`] — best-effort sender-unicasts-to-all (no
//!   retransmission; the cheapest centralized scheme);
//! * [`tree::TreeNode`] — static k-ary spanning-tree multicast: optimal
//!   message count, loses whole subtrees to a single crash.

pub mod broker;
pub mod direct;
pub mod tree;

pub use broker::{BrokerMsg, BrokerNode};
pub use direct::{DirectMsg, DirectNode};
pub use tree::{TreeMsg, TreeNode};

/// A record of one application-level delivery, shared by all baselines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<T> {
    /// Sequence number assigned by the origin.
    pub seq: u64,
    /// Virtual time of delivery.
    pub at: wsg_net::SimTime,
    /// The payload.
    pub payload: T,
}
