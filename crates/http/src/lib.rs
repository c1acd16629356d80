//! # om-http
//!
//! The HTTP layer of the customized Online Marketplace stack (paper
//! Fig. 1: *"HTTP Layer parses HTTP requests and forwards them to the
//! correct grains"*). The crate provides, bottom-up:
//!
//! * [`request`] / [`response`] — an incremental HTTP/1.1 parser and
//!   serializer: `Content-Length` and chunked framing, pipelining,
//!   keep-alive, percent-decoding, header limits;
//! * [`gateway`] — the REST surface of the benchmark's five business
//!   transactions: its 13 routes matched directly on the path's
//!   segments, dispatching onto any
//!   [`MarketplacePlatform`](om_marketplace::api::MarketplacePlatform);
//! * [`pipe`] — the in-memory duplex byte-pipe transport (blocking and
//!   non-blocking modes), so the whole stack exercises real wire
//!   framing without sockets;
//! * [`conn`] — the event-driven connection engine: one event loop per
//!   core it may use, at most `workers`, each parked on a ready list its
//!   connections' pipes mark, owning its connections and running the
//!   gateway inline, writing each response whole, with end-to-end
//!   backpressure (bounded accept queue and per-round admission with
//!   load-shed, capped per-connection buffers, idle timeouts);
//! * [`server`] — [`HttpServer`] over the event-driven engine plus a
//!   blocking client.
//!
//! ```
//! use om_http::{gateway::MarketplaceGateway, server::HttpServer, EventConfig, Method};
//! use om_common::config::BackendKind;
//! use om_marketplace::{EventualPlatform, PlatformKind, PlatformSpec};
//! use std::sync::Arc;
//!
//! let spec = PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual);
//! let platform = Arc::new(EventualPlatform::new(&spec));
//! let gateway = Arc::new(MarketplaceGateway::new(platform));
//! let server = HttpServer::start_event_driven(gateway, EventConfig::default());
//! let mut client = server.connect();
//! let resp = client.request(Method::Get, "/health", None).unwrap();
//! assert_eq!(resp.status, 200);
//! client.close(); // the connection's loop sees EOF and retires it
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod conn;
pub mod error;
pub mod gateway;
pub mod pipe;
pub mod request;
pub mod response;
pub mod server;

pub use conn::{EventConfig, ServerStats};
pub use error::HttpError;
pub use gateway::MarketplaceGateway;
pub use pipe::Connection;
pub use request::{parse_request, Headers, Method, ParserConfig, Request, Version};
pub use response::{parse_head_response, parse_response, Response};
pub use server::{HttpClient, HttpServer, ServerOptions};
