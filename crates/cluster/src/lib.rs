//! # wsg-cluster — the live membership plane
//!
//! The WS-Gossip paper assumes a *Membership service* that hands gossip
//! peers out (§3); `wsg_membership` provides the algorithms (heartbeat
//! views, φ accrual detection) and the simulator exercises them on
//! virtual time. This crate runs the same algorithms **live**: every
//! node in a [`ClusterRuntime`] fleet serves a WS-Membership-style SOAP
//! binding (`Join`/`JoinResponse`/`Heartbeat`/`Leave`, namespace
//! `urn:ws-membership:2008`) on its real socket at `/membership`, pumps
//! heartbeat gossip from a background thread, and feeds the resulting
//! view to the application protocol through [`wsg_net::PeerLiveness`].
//!
//! * [`proto`] — the SOAP binding and its `Member` entry encoding;
//! * [`plane`] — [`MembershipPlane`]: the clock-driven state machine
//!   (view + accrual detectors + leave/refusal tombstones + metrics);
//! * [`runtime`] — [`ClusterRuntime`]: `NetRuntime` plus per-node planes,
//!   `/membership` routes, pump threads, joins, leaves and crashes.
//!
//! Determinism note: the plane itself is clock-generic (tests drive it
//! with [`wsg_net::ManualClock`], bit-identically to the simulator);
//! only the runtime's pump threads live on wall-clock time, and planes
//! read it exclusively through the fleet's one `wsg_net::WallClock` —
//! the node loops' clock (lint rule D2).

pub mod plane;
pub mod proto;
pub mod runtime;

pub use plane::{ClusterConfig, MembershipPlane};
pub use proto::{membership_uri, ClusterMessage, MemberEntry, ProtoError};
pub use runtime::ClusterRuntime;
