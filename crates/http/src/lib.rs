//! # om-http
//!
//! The HTTP layer of the customized Online Marketplace stack (paper
//! Fig. 1: *"HTTP Layer parses HTTP requests and forwards them to the
//! correct grains"*). The crate provides, bottom-up:
//!
//! * [`request`] / [`response`] — an incremental HTTP/1.1 parser and
//!   serializer: `Content-Length` and chunked framing, pipelining,
//!   keep-alive, percent-decoding, header limits;
//! * [`router`] — method + path-pattern routing with `{param}` capture;
//! * [`gateway`] — the REST surface of the benchmark's five business
//!   transactions, dispatching onto any
//!   [`MarketplacePlatform`](om_marketplace::api::MarketplacePlatform);
//! * [`pipe`] — the in-memory duplex byte-pipe transport (blocking and
//!   non-blocking modes), so the whole stack exercises real wire
//!   framing without sockets;
//! * [`poller`] — a readiness/interest/deadline abstraction (the seam
//!   where an epoll backend would plug in);
//! * [`conn`] — the event-driven connection engine: one readiness loop
//!   multiplexing every connection, a bounded gateway worker pool, and
//!   end-to-end backpressure (bounded accept + dispatch queues with
//!   load-shed, capped per-connection buffers, idle timeouts);
//! * [`server`] — [`HttpServer`] over the event-driven engine plus a
//!   blocking client.
//!
//! ```
//! use om_http::{gateway::MarketplaceGateway, server::HttpServer, EventConfig, Method};
//! use om_marketplace::EventualPlatform;
//! use std::sync::Arc;
//!
//! let platform = Arc::new(EventualPlatform::new(Default::default()));
//! let gateway = Arc::new(MarketplaceGateway::new(platform));
//! let server = HttpServer::start_event_driven(gateway, EventConfig::default());
//! let mut client = server.connect();
//! let resp = client.request(Method::Get, "/health", None).unwrap();
//! assert_eq!(resp.status, 200);
//! client.close(); // let the worker's connection loop reach EOF
//! server.shutdown();
//! ```

pub mod adapter;
pub mod conn;
pub mod error;
pub mod gateway;
pub mod pipe;
pub mod poller;
pub mod request;
pub mod response;
pub mod router;
pub mod server;

pub use adapter::HttpPlatform;
pub use conn::{EventConfig, ServerStats};
pub use error::HttpError;
pub use gateway::MarketplaceGateway;
pub use pipe::Connection;
pub use poller::{Interest, Poller, Readiness, Token};
pub use request::{parse_request, Headers, Method, ParserConfig, Request, Version};
pub use response::{parse_head_response, parse_response, Response};
pub use router::{PathParams, RouteError, Router};
pub use server::{HttpClient, HttpServer, ServerOptions};
