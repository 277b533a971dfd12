//! # wsg-net — deterministic network simulation for WS-Gossip
//!
//! The WS-Gossip paper evaluates protocol-level properties — delivery
//! ratio, dissemination latency in rounds, per-node load, resilience to
//! crashes and loss. Its 2008 SOAP testbed is long gone, so this crate
//! provides the substitute substrate: a **deterministic discrete-event
//! simulator** ([`sim::SimNet`]) with configurable latency distributions,
//! message loss/duplication, crash and partition injection, per-node
//! perturbation (for the bimodal-multicast throughput experiment) and full
//! send/deliver/drop tracing — plus a thread-based runtime
//! ([`threads::ThreadNet`]) that runs the *same* [`Protocol`]
//! implementations on real OS threads and channels for live examples.
//!
//! Protocols are written once against the [`Protocol`]/[`Context`] pair and
//! run unmodified on either runtime.
//!
//! ## Example
//!
//! ```
//! use wsg_net::{sim::{SimNet, SimConfig}, Protocol, Context, NodeId};
//!
//! struct Echo;
//! impl Protocol for Echo {
//!     type Message = String;
//!     fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut dyn Context<String>) {
//!         if msg == "ping" { ctx.send(from, "pong".to_string()); }
//!     }
//! }
//!
//! let mut net = SimNet::new(SimConfig::default().seed(7));
//! let a = net.add_node(Echo);
//! let b = net.add_node(Echo);
//! net.send_external(a, b, "ping".to_string());
//! net.run_to_quiescence();
//! assert_eq!(net.stats().delivered, 2); // ping + pong
//! ```

pub mod check;
pub mod cov;
pub mod faults;
pub mod histogram;
pub mod latency;
pub mod protocol;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod sync;
pub mod threads;
pub mod time;
pub mod trace;

pub use faults::{FaultEvent, FaultSchedule};
pub use histogram::Histogram;
pub use latency::LatencyModel;
pub use protocol::{AllLive, Context, NodeId, PeerLiveness, Protocol, TimerTag};
pub use rng::{Pcg32, Rng64, RngExt, SplitMix64};
pub use sim::{SimConfig, SimNet};
pub use stats::SimStats;
pub use time::{Clock, ManualClock, SimDuration, SimTime, WallClock};
pub use trace::{TraceEvent, TraceKind};
