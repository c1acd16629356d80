//! The in-memory HTTP server and blocking client.
//!
//! This fronts the paper's Fig. 1 stack. Real HTTP/1.1 bytes flow
//! through real framing code (pipelining, keep-alive, partial reads);
//! transport is the in-process duplex pipes of [`crate::pipe`]. The
//! event-driven engine of [`crate::conn`] serves those bytes: one event
//! loop per core it may use, at most `workers`, each owning its
//! connections and running the gateway on its own thread, so a fixed
//! number of threads at any connection count, with per-round admission
//! and load-shed throughout.

use crate::conn::{EventConfig, EventEngine, ServerStats};
use crate::error::HttpError;
use crate::gateway::MarketplaceGateway;
use crate::pipe::Connection;
use crate::request::{Headers, Method, ParserConfig, Request, Version};
use crate::response::{json_bytes, parse_head_response, parse_response, Response};
use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking pipe operation waits before treating the peer as
/// gone. Generous enough for loaded CI machines; small enough that a
/// deadlocked test fails rather than hangs. Also the default idle
/// timeout for serving connections ([`ServerOptions::idle_timeout`]).
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// HTTP parser limits.
    pub parser: ParserConfig,
    /// Idle-connection timeout: a connection with no complete request
    /// for this long is answered `408` (if a partial request is
    /// buffered) or closed cleanly (if idle between requests).
    pub idle_timeout: Duration,
    /// Event-loop count and backpressure knobs of the engine.
    pub event: EventConfig,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            parser: ParserConfig::default(),
            idle_timeout: READ_TIMEOUT,
            event: EventConfig::default(),
        }
    }
}

/// The in-memory HTTP server fronting a [`MarketplaceGateway`].
pub struct HttpServer {
    engine: EventEngine,
    gateway: Arc<MarketplaceGateway>,
    parser_cfg: ParserConfig,
}

impl HttpServer {
    /// Starts a server with default parser limits and idle timeout.
    pub fn start_event_driven(gateway: Arc<MarketplaceGateway>, cfg: EventConfig) -> Self {
        Self::start_with_options(
            gateway,
            ServerOptions {
                event: cfg,
                ..ServerOptions::default()
            },
        )
    }

    /// Starts a server with full control over limits and timeouts.
    pub fn start_with_options(gateway: Arc<MarketplaceGateway>, opts: ServerOptions) -> Self {
        let parser_cfg = opts.parser.clone();
        let engine =
            EventEngine::start(gateway.clone(), opts.parser, opts.idle_timeout, opts.event);
        HttpServer {
            engine,
            gateway,
            parser_cfg,
        }
    }

    /// Opens a new client connection to this server.
    pub fn connect(&self) -> HttpClient {
        HttpClient::over(self.connect_raw(), self.parser_cfg.clone())
    }

    /// Opens a raw byte-level connection (no client framing) — for tests
    /// and benches that drive the wire directly, e.g. from a writer
    /// thread while another thread parses responses.
    pub fn connect_raw(&self) -> Connection {
        self.engine.connect()
    }

    /// The gateway behind the server.
    pub fn gateway(&self) -> &Arc<MarketplaceGateway> {
        &self.gateway
    }

    /// Health counters for the running engine.
    pub fn stats(&self) -> ServerStats {
        self.engine.stats()
    }

    /// Stops accepting, wakes idle connections, and joins every engine
    /// thread. Completes promptly even with idle keep-alive clients
    /// still connected (their parked reads are woken with EOF).
    pub fn shutdown(self) {
        self.engine.shutdown()
    }
}

/// A blocking HTTP client for the in-memory transport.
pub struct HttpClient {
    conn: Connection,
    inbuf: BytesMut,
    cfg: ParserConfig,
    /// Method bookkeeping per pipelined request, oldest first: HEAD
    /// responses carry the entity's `content-length` but no body, so the
    /// parser must know not to wait for one.
    pending_head: VecDeque<bool>,
}

impl HttpClient {
    /// Wraps an existing client-side connection end.
    pub fn over(conn: Connection, cfg: ParserConfig) -> Self {
        HttpClient {
            conn,
            inbuf: BytesMut::with_capacity(4096),
            cfg,
            pending_head: VecDeque::new(),
        }
    }

    /// Sends a request with an optional JSON body and awaits the response.
    pub fn request(
        &mut self,
        method: Method,
        target: &str,
        json: Option<&serde_json::Value>,
    ) -> Result<Response, HttpError> {
        self.send_request(method, target, json)?;
        self.read_response()
    }

    /// Sends a request without waiting (enables pipelining).
    pub fn send_request(
        &mut self,
        method: Method,
        target: &str,
        json: Option<&serde_json::Value>,
    ) -> Result<(), HttpError> {
        let (path, query) = crate::request::decode_target(target)?;
        let mut headers = Headers::new();
        let body = match json {
            Some(v) => {
                headers.insert("content-type", "application/json");
                json_bytes(v)
            }
            None => Bytes::new(),
        };
        let req = Request {
            method,
            path,
            raw_target: target.to_string(),
            query,
            version: Version::Http11,
            headers,
            body,
        };
        let mut wire = BytesMut::new();
        req.write_to(&mut wire);
        self.pending_head.push_back(method == Method::Head);
        self.conn.send(&wire);
        Ok(())
    }

    /// Writes raw bytes on the wire (for malformed-input tests). Best
    /// effort HEAD bookkeeping: a chunk that *starts* a HEAD request is
    /// recorded so its bodiless response still parses.
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.pending_head.push_back(bytes.starts_with(b"HEAD "));
        self.conn.send(bytes);
    }

    /// Blocks until one full response is parsed.
    pub fn read_response(&mut self) -> Result<Response, HttpError> {
        let is_head = self.pending_head.pop_front().unwrap_or(false);
        loop {
            let parsed = if is_head {
                parse_head_response(&mut self.inbuf, &self.cfg)?
            } else {
                parse_response(&mut self.inbuf, &self.cfg)?
            };
            if let Some(resp) = parsed {
                return Ok(resp);
            }
            if !self.conn.read_into(&mut self.inbuf) {
                return Err(HttpError::UnexpectedEof);
            }
        }
    }

    /// Closes the client side of the connection.
    pub fn close(&self) {
        self.conn.close();
    }
}
