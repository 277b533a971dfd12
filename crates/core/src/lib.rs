//! # ws-gossip — gossip-based service coordination middleware
//!
//! The paper's contribution, assembled from the substrate crates: a
//! middleware that lets SOAP services disseminate notifications
//! epidemically with minimal-to-no application changes.
//!
//! The four roles of §3 / Figure 1 are all instances of one
//! [`WsGossipNode`]:
//!
//! | Role | Construction | Change vs. a plain service |
//! |------|--------------|----------------------------|
//! | Coordinator | [`WsGossipNode::coordinator`] | hosts Activation + Registration + subscription list |
//! | Initiator | [`WsGossipNode::initiator`] | app code activates a context and issues ONE notification |
//! | Disseminator | [`WsGossipNode::disseminator`] | only a gossip handler added to the middleware stack |
//! | Consumer | [`WsGossipNode::consumer`] | completely unchanged |
//!
//! Nodes exchange **real serialized SOAP envelopes** (`String` XML on the
//! wire), parsed and pushed through a [`wsg_soap::HandlerChain`] on each
//! hop, so byte sizes and middleware behaviour are faithful to a WS-*
//! deployment. The gossip layer ([`layer::GossipHandler`]) intercepts
//! outgoing notifications and re-routes copies to peers obtained from the
//! WS-Coordination Registration service, exactly as Figure 1 describes.
//! The operations' WS-Addressing Action URIs are the constants of
//! [`actions`].
//!
//! ## Quickstart
//!
//! ```
//! use ws_gossip::{WsGossipNode, scenario};
//! use wsg_net::{sim::{SimNet, SimConfig}, NodeId};
//! use wsg_xml::Element;
//!
//! // 1 coordinator, 1 initiator, 4 disseminators, 2 consumers.
//! let mut net = scenario::build_figure1_network(
//!     SimConfig::default().seed(7),
//!     scenario::Figure1Shape { disseminators: 4, consumers: 2 },
//! );
//! scenario::subscribe_all(&mut net, "quotes");
//! net.run_to_quiescence();
//! scenario::activate(&mut net, "quotes");
//! net.run_to_quiescence();
//! scenario::notify(&mut net, "quotes", Element::text_node("tick", "ACME 101.25"));
//! net.run_to_quiescence();
//!
//! // Every subscriber received the notification.
//! for id in net.node_ids().into_iter().skip(2) {
//!     assert!(net.node(id).distinct_ops().len() == 1, "{id} missed the op");
//! }
//! ```

pub mod actions;
pub mod endpoint;
pub mod header;
pub mod layer;
pub mod node;
pub mod scenario;

pub use header::GossipHeader;
pub use layer::{GossipHandler, GossipLayerStats};
pub use node::{DeliveredOp, NodeStats, Role, WsGossipNode};
