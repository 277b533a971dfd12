//! # wsg-membership — gossip membership and failure management
//!
//! The WS-Gossip paper delegates peer lists to a *Membership service* and
//! notes (§3) that "a distributed Coordinator is supported … as the list of
//! subscribers can be maintained in a distributed fashion as proposed by
//! WS-Membership \[Vogels & Re 2003\]". This crate is that substrate:
//!
//! * [`view::MembershipView`] — per-node table of members with heartbeat
//!   counters and liveness status, merged by taking the freshest evidence;
//! * [`detector::FailureDetectorConfig`] — heartbeat-timeout suspicion and
//!   eviction policy (alive → suspect → dead → forgotten);
//! * [`accrual::PhiAccrual`] — the adaptive φ accrual detector that learns
//!   each member's heartbeat rhythm instead of using fixed timeouts;
//! * [`service::MembershipGossip`] — the van Renesse-style protocol: each
//!   node periodically bumps its own heartbeat and gossips its view to a
//!   few random live peers. Each node holds a full view, which is paper
//!   §3's subscriber list "maintained in a distributed fashion"; the
//!   integration tests drive a `GossipEngine`'s peer list from it.
//!
//! ## Example
//!
//! ```
//! use wsg_membership::{MembershipGossip, MembershipConfig};
//! use wsg_net::{sim::{SimNet, SimConfig}, NodeId, SimTime};
//!
//! let n = 16;
//! let mut net = SimNet::new(SimConfig::default().seed(3));
//! net.add_nodes(n, |id| MembershipGossip::new(MembershipConfig::default(), id, n));
//! net.start();
//! net.run_until(SimTime::from_secs(5));
//! // Every node has discovered every other node.
//! for id in net.node_ids() {
//!     assert_eq!(net.node(id).view().alive_count(), n);
//! }
//! ```

pub mod accrual;
pub mod detector;
pub mod service;
pub mod view;

pub use accrual::PhiAccrual;
pub use detector::FailureDetectorConfig;
pub use service::{MembershipConfig, MembershipGossip, MembershipMessage};
pub use view::{MemberStatus, MembershipView, Round};
