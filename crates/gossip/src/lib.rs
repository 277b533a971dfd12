//! # wsg-gossip — the epidemic dissemination engine
//!
//! Implements the protocol family the WS-Gossip paper builds its
//! coordination framework on (§2), "encompassing different gossip styles"
//! (§4):
//!
//! * **eager push** — forward the payload to `fanout` random peers on first
//!   receipt, up to `rounds` hops (the paper's WS-PushGossip);
//! * **lazy push** — advertise message ids (`IHAVE`), send payloads only on
//!   request (`IWANT`), trading latency for redundancy;
//! * **pull** — periodically ask random peers what they have seen that we
//!   have not;
//! * **push-pull** — eager push for speed plus periodic pull to close gaps;
//! * **anti-entropy** — periodic digest reconciliation converging replicas
//!   even after arbitrary loss.
//!
//! [`GossipEngine`] is a [`wsg_net::Protocol`]: it runs unchanged on the
//! deterministic simulator and the thread runtime. [`analysis`] provides
//! the Eugster et al. mean-field configuration maths the paper cites for
//! choosing `fanout` and `rounds`.
//!
//! ## Example
//!
//! ```
//! use wsg_gossip::{GossipEngine, GossipConfig, GossipStyle, GossipParams};
//! use wsg_net::{sim::{SimNet, SimConfig}, NodeId};
//!
//! let n = 32;
//! let params = GossipParams::atomic_for(n);
//! let mut net = SimNet::new(SimConfig::default().seed(1));
//! net.add_nodes(n, |id| {
//!     let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
//!     GossipEngine::<String>::new(GossipConfig::new(GossipStyle::EagerPush, params.clone()), peers)
//! });
//! net.start();
//! net.invoke(NodeId(0), |engine, ctx| {
//!     engine.publish("hello".to_string(), ctx);
//! });
//! net.run_to_quiescence();
//! let reached = (0..n).filter(|i| !net.node(NodeId(*i)).delivered().is_empty()).count();
//! assert_eq!(reached, n);
//! ```

pub mod aggregation;
pub mod analysis;
pub mod buffer;
pub mod engine;
pub mod order;
pub mod params;

pub use aggregation::{PushSum, PushSumShare};
pub use buffer::{Digest, MsgId};
pub use engine::{DeliveredMessage, EngineStats, GossipConfig, GossipEngine, GossipMessage};
pub use order::FifoBuffer;
pub use params::{ForwardDiscipline, GossipParams, GossipStyle};
