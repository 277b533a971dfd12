//! # wsg-coord — WS-Coordination for gossip interactions
//!
//! WS-Gossip is "built on the standard WS-Coordination in order to provide
//! gossip-based communication seamlessly to any regular service" (paper
//! §3). This crate implements the WS-Coordination 1.1 machinery the paper
//! relies on, specialised with a *gossip coordination type*:
//!
//! * [`CoordinationContext`] — the context created by **Activation** and
//!   propagated in a SOAP header with each disseminated message;
//! * [`ActivationService`] — `CreateCoordinationContext`: starts a gossip
//!   interaction and fixes its protocol parameters (`f`, `r`, style);
//! * [`RegistrationService`] — `Register`: a node that received a gossiped
//!   message and wants to take part registers and receives its gossip
//!   targets for the current round;
//! * [`SubscriptionList`] — the coordinator-side list of subscribers the
//!   paper's Coordinator role manages.
//!
//! Everything serialises to/from faithful SOAP header and body elements so
//! the middleware exchanges real envelopes.
//!
//! ## Example
//!
//! ```
//! use wsg_coord::{ActivationService, GossipProtocol, GossipPolicy};
//! use wsg_net::SimTime;
//!
//! let mut activation = ActivationService::new("http://coord/activation", "http://coord/registration");
//! let ctx = activation.create_context(
//!     GossipProtocol::Push,
//!     GossipPolicy::default(),
//!     SimTime::ZERO,
//! );
//! assert_eq!(ctx.protocol().unwrap(), GossipProtocol::Push);
//! let header = ctx.to_header();
//! let parsed = wsg_coord::CoordinationContext::from_header(&header).unwrap();
//! assert_eq!(parsed.identifier(), ctx.identifier());
//! ```

pub mod activation;
pub mod context;
pub mod obs;
pub mod registration;
pub mod subscription;
pub mod sync;
pub mod topics;

mod error;

pub use activation::{ActivationService, ActivationStats};
pub use context::{CoordinationContext, GossipPolicy, GossipProtocol};
pub use error::CoordError;
pub use registration::{GossipGrant, RegistrationService, RegistrationStats};
pub use subscription::{SubscriptionList, SubscriptionStats};
pub use sync::CoordinatorSync;
pub use topics::TopicFilter;
/// The WS-Gossip extension namespace, defined beside the envelope.
pub use wsg_soap::WSGOSSIP_NS;

/// WS-Coordination 1.1 namespace.
pub const WSCOOR_NS: &str = "http://docs.oasis-open.org/ws-tx/wscoor/2006/06";
