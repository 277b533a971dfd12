//! # wsg-http — SOAP over real sockets
//!
//! Everything below `crates/http` in this workspace moves messages through
//! channels or the discrete-event simulator. This crate is the missing
//! piece of the paper's artifact: an actual **SOAP-over-HTTP/1.1
//! transport** on `std::net::{TcpListener, TcpStream}`, written in-tree so
//! the workspace's zero-registry-dependency policy holds (no `hyper`, no
//! `reqwest` — see DESIGN.md §5).
//!
//! * [`message`] / [`parser`] — HTTP/1.1 requests and responses with an
//!   **incremental** parser: bytes arrive in arbitrary read-sized chunks
//!   and the parser hands back a complete message once the
//!   `Content-Length` body is buffered. Malformed input is an error, never
//!   a panic (the server answers 400).
//! * [`server`] — [`server::SoapHttpServer`]: accept loop + bounded worker
//!   thread pool, keep-alive with a per-connection idle timeout, graceful
//!   shutdown, and dispatch of each POSTed envelope — a batch's one by one,
//!   as the sender's exact bytes — to the route's [`server::Service`], with
//!   faults mapped to 400/500-with-SOAP-fault responses. (The handler
//!   chain runs in the node behind the service, not in the server.)
//! * [`client`] — [`client::SoapHttpClient`]: keyed keep-alive connection
//!   pool, connect/read/write timeouts, bounded retry with seeded
//!   jittered exponential backoff (`wsg_net::rng`, so tests replay
//!   deterministically).
//! * [`runtime`] — [`runtime::NetRuntime`]: the socket sink over the one
//!   live node loop (`wsg_net::threads::run_node`). Every
//!   `Protocol<Message = String>` node (notably `ws_gossip::WsGossipNode`)
//!   gets its own loopback socket, HTTP server and client; gossip rounds
//!   are real serialized envelopes POSTed between processes' sockets.
//!
//! ## Example: a one-way SOAP endpoint on a real socket
//!
//! ```
//! use std::sync::Arc;
//! use wsg_http::client::{HttpClientConfig, SoapHttpClient};
//! use wsg_http::server::{HttpServerConfig, SoapHttpServer, SoapReply};
//! use wsg_soap::{Envelope, MessageHeaders};
//! use wsg_xml::Element;
//!
//! let mut server = SoapHttpServer::bind(
//!     "127.0.0.1:0",
//!     Arc::new(|_req| Ok(SoapReply::Accepted)),
//!     HttpServerConfig::default(),
//! )
//! .unwrap();
//! let client = SoapHttpClient::new(42, HttpClientConfig::default());
//! let envelope = Envelope::request(
//!     MessageHeaders::request("http://svc", "urn:svc:Notify"),
//!     Element::text_node("tick", "ACME 101.25"),
//! );
//! let outcome = client
//!     .post(server.local_addr(), "/gossip", Some("urn:svc:Notify"), &[], envelope.to_xml().as_bytes())
//!     .unwrap();
//! assert_eq!(outcome.response.status, 202);
//! server.shutdown();
//! ```

// A `Service` returns `Result<SoapReply, Fault>` by value: faults and
// reply envelopes are built once per request and immediately serialized,
// so boxing them would buy nothing but allocation noise in every handler.
#![allow(clippy::result_large_err, clippy::large_enum_variant)]

pub mod batch;
pub mod client;
pub mod message;
pub mod parser;
pub mod runtime;
pub mod server;

pub use batch::{BatchConfig, OutboundHandle};
pub use client::{HttpClientConfig, PostError, PostOutcome, SoapHttpClient};
pub use message::{Headers, Request, Response};
pub use parser::{ParseError, Parsed, RequestParser, ResponseParser};
pub use runtime::{NetNode, NetRuntime, NetRuntimeConfig, TransportStats};
pub use server::{HttpServerConfig, SoapHttpServer, SoapReply, SoapRequest};
pub use wsg_net::time::WallClock;
