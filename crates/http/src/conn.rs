//! The event-driven connection engine: one readiness loop, a bounded
//! worker pool, and non-blocking per-connection state machines.
//!
//! This is the scalable front the ROADMAP calls for: instead of one OS
//! thread per connection, a single event-loop thread multiplexes every
//! connection through the [`Poller`] and hands parsed requests to
//! `workers` gateway threads over a bounded dispatch queue. Total thread
//! count is `O(workers + 1)` regardless of how many keep-alive
//! connections are open.
//!
//! Per connection the loop runs a small state machine:
//!
//! ```text
//! accept -> register(poller) -> { read edges  -> drain pipe -> parse
//!                                               -> dispatch (bounded) or 503
//!                                 completion  -> serialize -> buffered write
//!                                 write edges -> flush, toggle write interest
//!                                 deadline    -> 408 / clean close }
//! ```
//!
//! Backpressure is end-to-end and explicit:
//!
//! * **accept queue** (`accept_queue`): over capacity, new connections
//!   are shed — the client end sees immediate EOF;
//! * **dispatch queue** (`dispatch_queue`): full, the request is
//!   answered `503 Service Unavailable` + `retry-after` without touching
//!   a worker;
//! * **per-connection buffers** (`pipe_capacity`): while a response is
//!   in flight or the out-buffer is over the cap, the connection's read
//!   interest is off, bytes stay in the client→server pipe, and once
//!   that fills the *client's* blocking `send` parks — the in-memory
//!   analogue of a zero TCP receive window;
//! * **idle deadlines**: the poller's deadline wheel times out idle
//!   connections (clean close) and half-received requests
//!   (`408 Request Timeout` + `connection: close`).

use crate::gateway::MarketplaceGateway;
use crate::pipe::{Connection, TryRead};
use crate::poller::{Event, Interest, Poller, Readiness, Token};
use crate::request::{parse_request, Method, ParserConfig, Request};
use crate::response::Response;
use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the event-driven engine.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Gateway worker threads draining the dispatch queue.
    pub workers: usize,
    /// Connections that may wait un-registered before new ones are shed.
    pub accept_queue: usize,
    /// Parsed requests that may wait for a worker before 503 load-shed.
    pub dispatch_queue: usize,
    /// Byte cap per pipe direction and per connection out-buffer; the
    /// knob that turns a never-reading peer into blocked-peer
    /// backpressure instead of unbounded server memory.
    pub pipe_capacity: usize,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            workers: 4,
            accept_queue: 1024,
            dispatch_queue: 256,
            pipe_capacity: 64 * 1024,
        }
    }
}

/// A point-in-time snapshot of engine health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections currently registered with the poller.
    pub live_connections: usize,
    /// High-water mark of `live_connections`.
    pub max_live_connections: usize,
    /// Connections ever accepted.
    pub accepted: u64,
    /// Connections shed because the accept queue was full.
    pub shed_accept: u64,
    /// Requests answered 503 because the dispatch queue was full.
    pub shed_dispatch: u64,
    /// Requests currently sitting in the dispatch queue (gauge).
    pub dispatch_queued: usize,
    /// Half-received requests answered 408 by the deadline wheel.
    pub timeouts_408: u64,
    /// High-water mark of one connection's `inbuf + outbuf` bytes.
    pub max_conn_buffer_bytes: usize,
    /// Threads owned by the engine (event loop + workers).
    pub engine_threads: usize,
}

#[derive(Default)]
pub(crate) struct StatCounters {
    live: AtomicUsize,
    max_live: AtomicUsize,
    accepted: AtomicU64,
    shed_accept: AtomicU64,
    shed_dispatch: AtomicU64,
    dispatch_queued: AtomicUsize,
    timeouts_408: AtomicU64,
    max_conn_buffer: AtomicUsize,
}

impl StatCounters {
    fn record_buffer(&self, bytes: usize) {
        self.max_conn_buffer.fetch_max(bytes, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, engine_threads: usize) -> ServerStats {
        ServerStats {
            live_connections: self.live.load(Ordering::Relaxed),
            max_live_connections: self.max_live.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            shed_accept: self.shed_accept.load(Ordering::Relaxed),
            shed_dispatch: self.shed_dispatch.load(Ordering::Relaxed),
            dispatch_queued: self.dispatch_queued.load(Ordering::Relaxed),
            timeouts_408: self.timeouts_408.load(Ordering::Relaxed),
            max_conn_buffer_bytes: self.max_conn_buffer.load(Ordering::Relaxed),
            engine_threads,
        }
    }
}

/// One parsed request waiting for a gateway worker.
struct Job {
    token: Token,
    req: Request,
}

/// One finished gateway call on its way back to the event loop.
struct Completion {
    token: Token,
    resp: Response,
    is_head: bool,
    keep_alive: bool,
}

struct EngineShared {
    poller: Poller,
    accept: Mutex<VecDeque<Connection>>,
    completions: Mutex<Vec<Completion>>,
    shutdown: AtomicBool,
    cfg: EventConfig,
    parser: ParserConfig,
    idle_timeout: Duration,
    gateway: Arc<MarketplaceGateway>,
    stats: StatCounters,
}

/// Per-connection state machine driven by the event loop.
struct Conn {
    io: Connection,
    inbuf: BytesMut,
    outbuf: BytesMut,
    /// A request is with the worker pool; at most one per connection, so
    /// pipelined responses come back in request order for free.
    in_flight: bool,
    /// Stop parsing and close once `outbuf` drains.
    close_after_flush: bool,
    saw_eof: bool,
    interest: Interest,
}

impl Conn {
    fn new(io: Connection) -> Conn {
        Conn {
            io,
            inbuf: BytesMut::with_capacity(1024),
            outbuf: BytesMut::new(),
            in_flight: false,
            close_after_flush: false,
            saw_eof: false,
            interest: Interest::READ,
        }
    }

    /// Whether the state machine may parse (and dispatch) another
    /// request — false while a response is in flight or the out-buffer
    /// is over the cap.
    fn wants_parse(&self, cap: usize) -> bool {
        !self.in_flight && !self.close_after_flush && self.outbuf.len() <= cap
    }

    /// Whether the state machine wants more bytes *from the pipe* — like
    /// [`wants_parse`](Self::wants_parse) but additionally capped on the
    /// in-buffer, so pipelined requests pile up in the capped pipe (and
    /// ultimately park the writing client) instead of in server memory.
    fn wants_read(&self, cap: usize) -> bool {
        self.wants_parse(cap) && self.inbuf.len() < cap
    }

    fn done(&self) -> bool {
        self.close_after_flush && self.outbuf.is_empty()
    }
}

/// The engine: event-loop thread + worker pool behind a poller.
pub(crate) struct EventEngine {
    shared: Arc<EngineShared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EventEngine {
    pub(crate) fn start(
        gateway: Arc<MarketplaceGateway>,
        parser: ParserConfig,
        idle_timeout: Duration,
        cfg: EventConfig,
    ) -> EventEngine {
        assert!(cfg.workers > 0, "engine needs at least one worker");
        assert!(cfg.pipe_capacity > 0, "pipe capacity must be positive");
        let (job_tx, job_rx): (Sender<Job>, Receiver<Job>) = bounded(cfg.dispatch_queue.max(1));
        let shared = Arc::new(EngineShared {
            poller: Poller::new(),
            accept: Mutex::new(VecDeque::new()),
            completions: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            cfg: cfg.clone(),
            parser,
            idle_timeout,
            gateway,
            stats: StatCounters::default(),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                let rx = job_rx.clone();
                std::thread::Builder::new()
                    .name(format!("om-http-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn gateway worker")
            })
            .collect();
        let event_loop = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("om-http-event-loop".into())
                .spawn(move || event_loop(&shared, job_tx))
                .expect("spawn event loop")
        };
        EventEngine {
            shared,
            event_loop: Some(event_loop),
            workers,
        }
    }

    /// Opens a client connection. Under shutdown or a full accept queue
    /// the server end is dropped immediately — the client sees EOF, the
    /// in-memory analogue of a refused connect.
    pub(crate) fn connect(&self) -> Connection {
        let (client_end, server_end) = Connection::duplex_with_capacity(self.shared.cfg.pipe_capacity);
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return client_end; // server_end drops: EOF
        }
        {
            let mut q = self.shared.accept.lock();
            if q.len() >= self.shared.cfg.accept_queue {
                self.shared.stats.shed_accept.fetch_add(1, Ordering::Relaxed);
                return client_end; // shed: server_end drops, EOF
            }
            q.push_back(server_end);
        }
        self.shared.poller.wake();
        client_end
    }

    pub(crate) fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot(self.shared.cfg.workers + 1)
    }

    pub(crate) fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.poller.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EventEngine {
    fn drop(&mut self) {
        // Signal without joining, so leaking a server in a test never
        // blocks; threads exit on their own.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.poller.wake();
    }
}

fn worker_loop(shared: &EngineShared, jobs: &Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        shared.stats.dispatch_queued.fetch_sub(1, Ordering::Relaxed);
        let is_head = job.req.method == Method::Head;
        let keep_alive = job.req.keep_alive();
        let resp = shared.gateway.handle(&job.req);
        shared.completions.lock().push(Completion {
            token: job.token,
            resp,
            is_head,
            keep_alive,
        });
        shared.poller.wake();
    }
}

/// How long a shutdown waits for in-flight gateway calls to flush before
/// force-closing their connections.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(250);

fn event_loop(shared: &EngineShared, job_tx: Sender<Job>) {
    let mut conns: HashMap<Token, Conn> = HashMap::new();
    let mut next_token: u64 = 0; // monotonic; tokens are never reused
    let mut events: Vec<Event> = Vec::new();

    loop {
        events.clear();
        shared.poller.poll(&mut events, Duration::from_millis(100));

        accept_new(shared, &mut conns, &mut next_token);
        drain_completions(shared, &mut conns, &job_tx);

        for &event in &events {
            let Some(conn) = conns.get_mut(&event.token) else {
                continue; // already closed; late edge or deadline
            };
            if event.timed_out {
                handle_timeout(shared, conn, event.token);
            }
            if event.readiness.readable || event.readiness.writable {
                pump(shared, conn, event.token, &job_tx);
            }
            finish_touch(shared, &mut conns, event.token);
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            shutdown_drain(shared, &mut conns, &job_tx);
            return; // dropping job_tx ends the worker pool
        }
    }
}

/// Registers queued connections with the poller.
fn accept_new(shared: &EngineShared, conns: &mut HashMap<Token, Conn>, next_token: &mut u64) {
    loop {
        let Some(io) = shared.accept.lock().pop_front() else {
            return;
        };
        let token = Token(*next_token);
        *next_token += 1;
        // Interest first, watchers second: an edge can only arrive once
        // the poller already knows the token, so nothing is dropped as
        // stale.
        shared.poller.register(token, Interest::READ);
        io.register(shared.poller.watcher(token), shared.poller.watcher(token));
        // Bytes may have landed before the watchers existed: seed with
        // the observed level.
        shared.poller.inject(token, io.readiness_level());
        shared
            .poller
            .set_deadline(token, Some(Instant::now() + shared.idle_timeout));
        conns.insert(token, Conn::new(io));
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let live = shared.stats.live.fetch_add(1, Ordering::Relaxed) + 1;
        shared.stats.max_live.fetch_max(live, Ordering::Relaxed);
    }
}

/// Applies finished gateway calls: serialize, flush, resume reading.
fn drain_completions(
    shared: &EngineShared,
    conns: &mut HashMap<Token, Conn>,
    job_tx: &Sender<Job>,
) {
    let done: Vec<Completion> = std::mem::take(&mut *shared.completions.lock());
    for completion in done {
        let Some(conn) = conns.get_mut(&completion.token) else {
            continue; // connection closed while the worker ran
        };
        conn.in_flight = false;
        let mut resp = completion.resp;
        if !completion.keep_alive {
            resp = resp.with_header("connection", "close");
            conn.close_after_flush = true;
        }
        if completion.is_head {
            resp.write_head_to(&mut conn.outbuf);
        } else {
            resp.write_to(&mut conn.outbuf);
        }
        // Parse any pipelined request already buffered, then flush.
        pump(shared, conn, completion.token, job_tx);
        finish_touch(shared, conns, completion.token);
    }
}

/// Read -> parse -> dispatch -> flush for one connection.
fn pump(shared: &EngineShared, conn: &mut Conn, token: Token, job_tx: &Sender<Job>) {
    let out_cap = shared.cfg.pipe_capacity;
    if conn.wants_read(out_cap) {
        loop {
            match conn.io.try_read(&mut conn.inbuf) {
                TryRead::Data(_) => continue,
                TryRead::Empty => break,
                TryRead::Closed => {
                    conn.saw_eof = true;
                    break;
                }
            }
        }
    }
    while conn.wants_parse(out_cap) {
        match parse_request(&mut conn.inbuf, &shared.parser) {
            Ok(Some(req)) => {
                let keep_alive = req.keep_alive();
                match job_tx.try_send(Job { token, req }) {
                    Ok(()) => {
                        conn.in_flight = true;
                        shared.stats.dispatch_queued.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TrySendError::Full(_)) => {
                        shared.stats.shed_dispatch.fetch_add(1, Ordering::Relaxed);
                        let mut resp = MarketplaceGateway::overloaded();
                        if !keep_alive {
                            resp = resp.with_header("connection", "close");
                            conn.close_after_flush = true;
                        }
                        resp.write_to(&mut conn.outbuf);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        conn.close_after_flush = true;
                    }
                }
            }
            Ok(None) => {
                if conn.saw_eof {
                    // Client is gone; whatever half-request remains can
                    // never complete.
                    conn.close_after_flush = true;
                    conn.inbuf.clear();
                }
                break;
            }
            Err(e) => {
                let resp = Response::text(e.status_code(), e.to_string())
                    .with_header("connection", "close");
                resp.write_to(&mut conn.outbuf);
                conn.close_after_flush = true;
                conn.inbuf.clear();
            }
        }
    }
    shared
        .stats
        .record_buffer(conn.inbuf.len() + conn.outbuf.len());
    flush(conn);
}

/// Non-blocking write of as much buffered response as the pipe accepts.
fn flush(conn: &mut Conn) {
    while !conn.outbuf.is_empty() {
        let n = conn.io.try_write(&conn.outbuf);
        if n == 0 {
            break; // peer's pipe is full; wait for a writable edge
        }
        let _ = conn.outbuf.split_to(n);
    }
}

/// Idle deadline fired for this connection.
fn handle_timeout(shared: &EngineShared, conn: &mut Conn, token: Token) {
    if conn.in_flight {
        // Not idle — the gateway is still working; push the deadline.
        shared
            .poller
            .set_deadline(token, Some(Instant::now() + shared.idle_timeout));
        return;
    }
    if !conn.inbuf.is_empty() && !conn.close_after_flush {
        // Half a request arrived and then the line went quiet: tell the
        // client instead of silently hanging up (slowloris handling).
        shared.stats.timeouts_408.fetch_add(1, Ordering::Relaxed);
        let resp = Response::text(408, "timed out waiting for complete request")
            .with_header("connection", "close");
        resp.write_to(&mut conn.outbuf);
        conn.inbuf.clear();
        conn.close_after_flush = true;
        flush(conn);
        return;
    }
    // Idle (or already closing and the peer never drained): drop it.
    conn.outbuf.clear();
    conn.close_after_flush = true;
}

/// After any activity on `token`: retire the connection if it is done,
/// otherwise recompute interest + deadline.
fn finish_touch(shared: &EngineShared, conns: &mut HashMap<Token, Conn>, token: Token) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if conn.done() || (conn.saw_eof && !conn.in_flight && conn.outbuf.is_empty()) {
        close_conn(shared, conns, token);
        return;
    }
    let desired = Interest {
        readable: conn.wants_read(shared.cfg.pipe_capacity),
        writable: !conn.outbuf.is_empty(),
    };
    if desired != conn.interest {
        let enabled_read = desired.readable && !conn.interest.readable;
        let enabled_write = desired.writable && !conn.interest.writable;
        conn.interest = desired;
        shared.poller.set_interest(token, desired);
        if enabled_read || enabled_write {
            // The edge may have passed while the interest was off; seed
            // the poller with the current level so it isn't lost.
            let level = conn.io.readiness_level();
            shared.poller.inject(
                token,
                Readiness {
                    readable: level.readable && enabled_read,
                    writable: level.writable && enabled_write,
                },
            );
        }
    }
    shared
        .poller
        .set_deadline(token, Some(Instant::now() + shared.idle_timeout));
}

/// Deregisters and drops one connection; its pipes close on drop, so a
/// blocked client wakes with EOF.
fn close_conn(shared: &EngineShared, conns: &mut HashMap<Token, Conn>, token: Token) {
    if let Some(conn) = conns.remove(&token) {
        drop(conn); // pipe close may fire one last watcher edge...
        shared.poller.deregister(token); // ...which this clears
        shared.stats.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Shutdown: shed queued accepts, close idle connections immediately,
/// give in-flight gateway calls a short grace to flush, then drop the
/// rest.
fn shutdown_drain(shared: &EngineShared, conns: &mut HashMap<Token, Conn>, job_tx: &Sender<Job>) {
    shared.accept.lock().clear(); // queued clients see EOF
    let idle: Vec<Token> = conns
        .iter()
        .filter(|(_, c)| !c.in_flight && c.outbuf.is_empty())
        .map(|(t, _)| *t)
        .collect();
    for token in idle {
        close_conn(shared, conns, token);
    }
    let deadline = Instant::now() + SHUTDOWN_GRACE;
    let mut events = Vec::new();
    while !conns.is_empty() && Instant::now() < deadline {
        events.clear();
        shared.poller.poll(&mut events, Duration::from_millis(10));
        drain_completions(shared, conns, job_tx);
        for event in &events {
            if let Some(conn) = conns.get_mut(&event.token) {
                if event.readiness.writable {
                    flush(conn);
                }
                finish_touch(shared, conns, event.token);
            }
        }
        let settled: Vec<Token> = conns
            .iter()
            .filter(|(_, c)| !c.in_flight && c.outbuf.is_empty())
            .map(|(t, _)| *t)
            .collect();
        for token in settled {
            close_conn(shared, conns, token);
        }
    }
    let remaining: Vec<Token> = conns.keys().copied().collect();
    for token in remaining {
        close_conn(shared, conns, token);
    }
}
