//! The in-memory HTTP server (two engines) and blocking client.
//!
//! This fronts the paper's Fig. 1 stack. Real HTTP/1.1 bytes flow
//! through real framing code (pipelining, keep-alive, partial reads);
//! transport is the in-process duplex pipes of [`crate::pipe`]. Two
//! engines serve those bytes:
//!
//! * **threaded** ([`EngineKind::Threaded`]) — one OS thread per
//!   connection, the thread-pooled .NET front the paper's stack uses.
//!   Simple and fast at low concurrency, `O(connections)` threads.
//! * **event-driven** ([`EngineKind::EventDriven`]) — one readiness
//!   event loop multiplexing every connection plus a bounded gateway
//!   worker pool ([`crate::conn`]), `O(workers + 1)` threads at any
//!   connection count, with bounded queues and load-shed throughout.

use crate::conn::{EventConfig, EventEngine, ServerStats, StatCounters};
use crate::error::HttpError;
use crate::gateway::MarketplaceGateway;
use crate::pipe::{close_weak, Connection, Pipe, ReadStatus};
use crate::request::{parse_request, Headers, Method, ParserConfig, Request, Version};
use crate::response::{json_bytes, parse_head_response, parse_response, Response};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocking pipe operation waits before treating the peer as
/// gone. Generous enough for loaded CI machines; small enough that a
/// deadlocked test fails rather than hangs. Also the default idle
/// timeout for serving connections ([`ServerOptions::idle_timeout`]).
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Which connection engine a server runs.
#[derive(Debug, Clone)]
pub enum EngineKind {
    /// One serving OS thread per connection, `acceptors` accept threads.
    Threaded {
        /// Accept-loop threads draining the connection queue.
        acceptors: usize,
    },
    /// One event-loop thread + a bounded worker pool (see
    /// [`EventConfig`] for the backpressure knobs).
    EventDriven(EventConfig),
}

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// HTTP parser limits.
    pub parser: ParserConfig,
    /// Idle-connection timeout: a connection with no complete request
    /// for this long is answered `408` (if a partial request is
    /// buffered) or closed cleanly (if idle between requests).
    pub idle_timeout: Duration,
    /// Engine choice.
    pub engine: EngineKind,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            parser: ParserConfig::default(),
            idle_timeout: READ_TIMEOUT,
            engine: EngineKind::Threaded { acceptors: 4 },
        }
    }
}

/// The in-memory HTTP server fronting a [`MarketplaceGateway`].
pub struct HttpServer {
    engine: EngineImpl,
    gateway: Arc<MarketplaceGateway>,
    parser_cfg: ParserConfig,
}

enum EngineImpl {
    Threaded(ThreadedEngine),
    Event(EventEngine),
}

impl HttpServer {
    /// Starts a threaded server with `acceptors` accept-loop threads
    /// (the historical constructor; kept as the baseline engine).
    pub fn start(gateway: Arc<MarketplaceGateway>, acceptors: usize) -> Self {
        Self::start_with_config(gateway, acceptors, ParserConfig::default())
    }

    /// Starts a threaded server with explicit parser limits.
    pub fn start_with_config(
        gateway: Arc<MarketplaceGateway>,
        acceptors: usize,
        parser_cfg: ParserConfig,
    ) -> Self {
        Self::start_with_options(
            gateway,
            ServerOptions {
                parser: parser_cfg,
                engine: EngineKind::Threaded { acceptors },
                ..ServerOptions::default()
            },
        )
    }

    /// Starts an event-driven server with default parser limits and
    /// idle timeout.
    pub fn start_event_driven(gateway: Arc<MarketplaceGateway>, cfg: EventConfig) -> Self {
        Self::start_with_options(
            gateway,
            ServerOptions {
                engine: EngineKind::EventDriven(cfg),
                ..ServerOptions::default()
            },
        )
    }

    /// Starts a server with full control over engine and limits.
    pub fn start_with_options(gateway: Arc<MarketplaceGateway>, opts: ServerOptions) -> Self {
        let parser_cfg = opts.parser.clone();
        let engine = match opts.engine {
            EngineKind::Threaded { acceptors } => EngineImpl::Threaded(ThreadedEngine::start(
                gateway.clone(),
                acceptors,
                opts.parser,
                opts.idle_timeout,
            )),
            EngineKind::EventDriven(cfg) => EngineImpl::Event(EventEngine::start(
                gateway.clone(),
                opts.parser,
                opts.idle_timeout,
                cfg,
            )),
        };
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
        match &self.engine {
            EngineImpl::Threaded(t) => t.connect(),
            EngineImpl::Event(e) => e.connect(),
        }
    }

    /// The gateway behind the server.
    pub fn gateway(&self) -> &Arc<MarketplaceGateway> {
        &self.gateway
    }

    /// Which engine this server runs, for logs and bench labels.
    pub fn engine_name(&self) -> &'static str {
        match &self.engine {
            EngineImpl::Threaded(_) => "threaded",
            EngineImpl::Event(_) => "event",
        }
    }

    /// Health counters for the running engine.
    pub fn stats(&self) -> ServerStats {
        match &self.engine {
            EngineImpl::Threaded(t) => t.stats(),
            EngineImpl::Event(e) => e.stats(),
        }
    }

    /// Stops accepting, wakes idle connections, and joins every engine
    /// thread. Completes promptly even with idle keep-alive clients
    /// still connected (their parked reads are woken with EOF).
    pub fn shutdown(self) {
        match self.engine {
            EngineImpl::Threaded(t) => t.shutdown(),
            EngineImpl::Event(e) => e.shutdown(),
        }
    }
}

/// The thread-per-connection engine (baseline).
struct ThreadedEngine {
    conn_tx: Option<Sender<Connection>>,
    acceptors: Vec<JoinHandle<()>>,
    served: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Weak handles to every live connection's receive pipe, so
    /// `shutdown()` can wake readers parked on idle keep-alive
    /// connections instead of waiting out their idle timeout.
    live_pipes: Arc<Mutex<Vec<Weak<Pipe>>>>,
    stats: Arc<StatCounters>,
    acceptor_count: usize,
}

impl ThreadedEngine {
    fn start(
        gateway: Arc<MarketplaceGateway>,
        acceptors: usize,
        parser_cfg: ParserConfig,
        idle_timeout: Duration,
    ) -> Self {
        assert!(acceptors > 0, "server needs at least one acceptor");
        let (conn_tx, conn_rx): (Sender<Connection>, Receiver<Connection>) = unbounded();
        let served: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let stats: Arc<StatCounters> = Arc::new(StatCounters::default());
        let conn_counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles = (0..acceptors)
            .map(|i| {
                let rx = conn_rx.clone();
                let gateway = gateway.clone();
                let cfg = parser_cfg.clone();
                let served = served.clone();
                let stats = stats.clone();
                let conn_counter = conn_counter.clone();
                std::thread::Builder::new()
                    .name(format!("om-http-acceptor-{i}"))
                    .spawn(move || {
                        while let Ok(conn) = rx.recv() {
                            let gateway = gateway.clone();
                            let cfg = cfg.clone();
                            let stats2 = stats.clone();
                            let id = conn_counter
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            stats.conn_opened();
                            let handle = std::thread::Builder::new()
                                .name(format!("om-http-conn-{id}"))
                                .spawn(move || {
                                    serve_connection(&gateway, &conn, &cfg, idle_timeout, &stats2);
                                    stats2.conn_closed();
                                })
                                .expect("spawn connection thread");
                            let mut served = served.lock();
                            // Reap finished serving threads so the
                            // backlog tracks live connections instead of
                            // growing one handle per connection forever.
                            served.retain(|h| !h.is_finished());
                            served.push(handle);
                        }
                    })
                    .expect("spawn http acceptor")
            })
            .collect();
        ThreadedEngine {
            conn_tx: Some(conn_tx),
            acceptors: handles,
            served,
            live_pipes: Arc::new(Mutex::new(Vec::new())),
            stats,
            acceptor_count: acceptors,
        }
    }

    fn connect(&self) -> Connection {
        let (client_end, server_end) = Connection::duplex();
        {
            let mut pipes = self.live_pipes.lock();
            pipes.retain(|w| w.strong_count() > 0);
            pipes.push(server_end.rx_weak());
        }
        self.stats.conn_accepted();
        self.conn_tx
            .as_ref()
            .expect("server not shut down")
            .send(server_end)
            .expect("server accept queue alive");
        client_end
    }

    fn stats(&self) -> ServerStats {
        let mut served = self.served.lock();
        served.retain(|h| !h.is_finished());
        let backlog = served.len();
        drop(served);
        self.stats.snapshot(self.acceptor_count + backlog)
    }

    fn shutdown(mut self) {
        self.conn_tx.take(); // closes the accept queue
        for handle in self.acceptors.drain(..) {
            let _ = handle.join();
        }
        // Wake every reader parked on an idle keep-alive connection —
        // without this, each one holds shutdown hostage for up to its
        // idle timeout.
        for weak in self.live_pipes.lock().drain(..) {
            close_weak(&weak);
        }
        let handles: Vec<_> = self.served.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ThreadedEngine {
    fn drop(&mut self) {
        self.conn_tx.take();
        // Wake parked readers; serving threads then exit on their own.
        // Don't join in drop, to keep drops non-blocking in tests that
        // leak clients.
        for weak in self.live_pipes.lock().drain(..) {
            close_weak(&weak);
        }
    }
}

/// Serves one connection until it closes, times out, or framing breaks.
fn serve_connection(
    gateway: &MarketplaceGateway,
    conn: &Connection,
    cfg: &ParserConfig,
    idle_timeout: Duration,
    stats: &StatCounters,
) {
    let mut inbuf = BytesMut::with_capacity(4096);
    let mut outbuf = BytesMut::with_capacity(4096);
    loop {
        match parse_request(&mut inbuf, cfg) {
            Ok(Some(req)) => {
                let keep_alive = req.keep_alive();
                let mut resp = gateway.handle(&req);
                if !keep_alive {
                    resp = resp.with_header("connection", "close");
                }
                outbuf.clear();
                if req.method == Method::Head {
                    // Same status line and headers as GET — including
                    // the entity's content-length — but no body bytes.
                    resp.write_head_to(&mut outbuf);
                } else {
                    resp.write_to(&mut outbuf);
                }
                conn.send(&outbuf);
                if !keep_alive {
                    conn.close();
                    return;
                }
            }
            Ok(None) => match conn.read_with_timeout(&mut inbuf, idle_timeout) {
                ReadStatus::Data => {}
                ReadStatus::Eof => return, // EOF between messages: clean close
                ReadStatus::TimedOut => {
                    if !inbuf.is_empty() {
                        // A partial request is buffered and the line
                        // went quiet: tell the client rather than
                        // silently hanging up.
                        stats.timeout_408();
                        let resp = Response::text(408, "timed out waiting for complete request")
                            .with_header("connection", "close");
                        outbuf.clear();
                        resp.write_to(&mut outbuf);
                        conn.send(&outbuf);
                    }
                    conn.close();
                    return;
                }
            },
            Err(e) => {
                let resp = Response::text(e.status_code(), e.to_string())
                    .with_header("connection", "close");
                outbuf.clear();
                resp.write_to(&mut outbuf);
                conn.send(&outbuf);
                conn.close();
                return;
            }
        }
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
