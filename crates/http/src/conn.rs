//! The event-driven connection engine: `workers` event loops, each
//! owning the connections placed on it and running the gateway inline.
//!
//! Instead of one OS thread per connection, each loop multiplexes its
//! connections through its own [`Poller`], parses a request, calls
//! [`MarketplaceGateway::handle`] on the loop thread, and hands the whole
//! response to the client in one wake: a write into an empty
//! server→client pipe is accepted whole. The engine owns exactly
//! `workers` threads however many keep-alive connections are open, and a
//! request crosses no thread between its bytes arriving and its response
//! leaving.
//!
//! A new connection goes to the loop with the fewest live connections
//! (ties to the lowest index). Each loop then works in rounds:
//!
//! ```text
//! accept -> poll -> for each ready connection, oldest first:
//!     flush -> read (inbuf cap re-checked per read) -> parse one request
//!           -> admitted: gateway.handle inline (a panic: 500 + close)
//!              | over budget: 503
//!           -> serialize -> flush (whole write into an empty pipe)
//!     -> parsing open and bytes left in inbuf: re-queue for next round
//!     -> recompute interest + deadline, or close
//! ```
//!
//! Backpressure is end-to-end and explicit:
//!
//! * **accept queue** (`accept_queue`): over capacity, new connections
//!   are shed — the client end sees immediate EOF;
//! * **admission** (`dispatch_queue`): a loop admits at most this many
//!   requests per round; the round's further requests are answered
//!   `503 Service Unavailable` + `retry-after` without reaching the
//!   gateway. A connection contributes at most one request per round,
//!   so an admitted request waits for at most one round of handlers;
//! * **per-connection buffers** (`pipe_capacity`): while the out-buffer
//!   is over the cap the connection is not parsed, and while the
//!   in-buffer is at the cap it is not read; bytes stay in the capped
//!   client→server pipe, and once that fills the *client's* blocking
//!   `send` parks — the in-memory analogue of a zero TCP receive window.
//!   A connection's out-buffer stays within `pipe_capacity` plus the
//!   largest single response (the server's own), its in-buffer under
//!   twice `pipe_capacity`;
//! * **idle deadlines**: the poller's deadline wheel times out idle
//!   connections (clean close) and half-received requests
//!   (`408 Request Timeout` + `connection: close`).
//!
//! Three invariants keep a loop that runs handlers inline from stalling
//! or misjudging a connection:
//!
//! 1. **Parsing that re-opens is never left to an edge.** A turn flushes
//!    before it parses, and a turn that ends with parsing open and
//!    unparsed bytes in `inbuf` re-queues the connection: a drained
//!    out-buffer re-opens parsing for requests already read, which no
//!    pipe edge will announce.
//! 2. **The `inbuf` cap is re-checked on every pipe read.** A client on
//!    another core refills the pipe as fast as the loop drains it.
//! 3. **A deadline counts only if the turn finds nothing to do.** After
//!    a long inline handler, a connection whose request waits unread in
//!    its pipe is served, not closed or answered 408.

use crate::gateway::MarketplaceGateway;
use crate::pipe::{Connection, TryRead};
use crate::poller::{Event, Interest, Poller, Readiness, Token};
use crate::request::{parse_request, Method, ParserConfig, Request};
use crate::response::Response;
use bytes::BytesMut;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the event-driven engine.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Event loops, and so engine threads. Each loop owns the
    /// connections placed on it and runs their gateway calls inline.
    pub workers: usize,
    /// Connections that may wait un-registered before new ones are shed.
    pub accept_queue: usize,
    /// Requests one loop admits per round; the round's further requests
    /// are answered 503 + `retry-after`.
    pub dispatch_queue: usize,
    /// Byte cap per client→server pipe and per connection buffer; the
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
    /// Connections currently registered with a loop.
    pub live_connections: usize,
    /// High-water mark of `live_connections`.
    pub max_live_connections: usize,
    /// Connections ever accepted.
    pub accepted: u64,
    /// Connections shed because the accept queue was full.
    pub shed_accept: u64,
    /// Requests answered 503 because their loop's round had admitted
    /// `dispatch_queue` requests already.
    pub shed_dispatch: u64,
    /// Half-received requests answered 408 by the deadline wheel.
    pub timeouts_408: u64,
    /// Requests whose handler panicked, answered 500 with
    /// `connection: close`; their loop went on serving.
    pub handler_panics: u64,
    /// High-water mark of one connection's `inbuf + outbuf` bytes.
    pub max_conn_buffer_bytes: usize,
    /// Threads owned by the engine: one per event loop.
    pub engine_threads: usize,
}

#[derive(Default)]
pub(crate) struct StatCounters {
    live: AtomicUsize,
    max_live: AtomicUsize,
    accepted: AtomicU64,
    shed_accept: AtomicU64,
    shed_dispatch: AtomicU64,
    timeouts_408: AtomicU64,
    handler_panics: AtomicU64,
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
            timeouts_408: self.timeouts_408.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            max_conn_buffer_bytes: self.max_conn_buffer.load(Ordering::Relaxed),
            engine_threads,
        }
    }
}

/// The part of one event loop other threads touch.
struct LoopShared {
    poller: Poller,
    /// Connections placed on this loop and not yet closed, queued or
    /// registered: what placement balances.
    placed: AtomicUsize,
}

struct EngineShared {
    loops: Vec<LoopShared>,
    /// Per loop, the connections placed on it and not yet registered.
    accept: Mutex<Vec<VecDeque<Connection>>>,
    shutdown: AtomicBool,
    cfg: EventConfig,
    parser: ParserConfig,
    idle_timeout: Duration,
    gateway: Arc<MarketplaceGateway>,
    stats: StatCounters,
}

/// Per-connection state machine driven by its loop.
struct Conn {
    io: Connection,
    inbuf: BytesMut,
    outbuf: BytesMut,
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
            close_after_flush: false,
            saw_eof: false,
            interest: Interest::READ,
        }
    }

    /// Whether the state machine may parse another request — false while
    /// closing or while the out-buffer is over the cap.
    fn wants_parse(&self, cap: usize) -> bool {
        !self.close_after_flush && self.outbuf.len() <= cap
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

    /// Serializes `resp` to `req` into the out-buffer (head only for
    /// HEAD), closing after it when the request asked to.
    fn queue_response(&mut self, mut resp: Response, req: &Request) {
        if !req.keep_alive() {
            resp = resp.with_header("connection", "close");
            self.close_after_flush = true;
        }
        if req.method == Method::Head {
            resp.write_head_to(&mut self.outbuf);
        } else {
            resp.write_to(&mut self.outbuf);
        }
    }
}

/// The engine: `workers` event-loop threads, each behind its own poller.
pub(crate) struct EventEngine {
    shared: Arc<EngineShared>,
    loops: Vec<JoinHandle<()>>,
}

impl EventEngine {
    pub(crate) fn start(
        gateway: Arc<MarketplaceGateway>,
        parser: ParserConfig,
        idle_timeout: Duration,
        cfg: EventConfig,
    ) -> EventEngine {
        assert!(cfg.workers > 0, "engine needs at least one event loop");
        assert!(cfg.pipe_capacity > 0, "pipe capacity must be positive");
        let shared = Arc::new(EngineShared {
            loops: (0..cfg.workers)
                .map(|_| LoopShared {
                    poller: Poller::new(),
                    placed: AtomicUsize::new(0),
                })
                .collect(),
            accept: Mutex::new((0..cfg.workers).map(|_| VecDeque::new()).collect()),
            shutdown: AtomicBool::new(false),
            cfg: cfg.clone(),
            parser,
            idle_timeout,
            gateway,
            stats: StatCounters::default(),
        });
        let loops = (0..cfg.workers)
            .map(|me| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("om-http-loop-{me}"))
                    .spawn(move || event_loop(&shared, me))
                    .expect("spawn event loop")
            })
            .collect();
        EventEngine { shared, loops }
    }

    /// Opens a client connection on the loop with the fewest live
    /// connections (ties to the lowest index). Under shutdown or a full
    /// accept queue the server end is dropped immediately — the client
    /// sees EOF, the in-memory analogue of a refused connect.
    pub(crate) fn connect(&self) -> Connection {
        let shared = &self.shared;
        let (client_end, server_end) = Connection::duplex_with_capacity(shared.cfg.pipe_capacity);
        if shared.shutdown.load(Ordering::SeqCst) {
            return client_end; // server_end drops: EOF
        }
        let mut queues = shared.accept.lock();
        if queues.iter().map(VecDeque::len).sum::<usize>() >= shared.cfg.accept_queue {
            shared.stats.shed_accept.fetch_add(1, Ordering::Relaxed);
            return client_end; // shed: server_end drops, EOF
        }
        // `min_by_key` returns the first of equal minima: the lowest index.
        let (me, target) = shared
            .loops
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.placed.load(Ordering::Relaxed))
            .expect("at least one loop");
        target.placed.fetch_add(1, Ordering::Relaxed);
        queues[me].push_back(server_end);
        drop(queues);
        target.poller.wake();
        client_end
    }

    pub(crate) fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot(self.shared.cfg.workers)
    }

    pub(crate) fn shutdown(mut self) {
        self.signal_shutdown();
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }

    fn signal_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for l in &self.shared.loops {
            l.poller.wake();
        }
    }
}

impl Drop for EventEngine {
    fn drop(&mut self) {
        // Signal without joining, so leaking a server in a test never
        // blocks; the loops exit on their own.
        self.signal_shutdown();
    }
}

fn event_loop(shared: &EngineShared, me: usize) {
    let lp = &shared.loops[me];
    let mut conns: HashMap<Token, Conn> = HashMap::new();
    let mut next_token: u64 = 0; // monotonic; tokens are never reused
    let mut events: Vec<Event> = Vec::new();
    // Connections whose turn left parsing open over unparsed bytes.
    let mut requeued: Vec<Token> = Vec::new();

    while !shared.shutdown.load(Ordering::SeqCst) {
        accept_new(shared, me, &mut conns, &mut next_token);
        events.clear();
        let wait = if requeued.is_empty() {
            Duration::from_millis(100)
        } else {
            Duration::ZERO
        };
        lp.poller.poll(&mut events, wait);
        events.extend(requeued.drain(..).map(|token| Event {
            token,
            readiness: Readiness::READABLE,
            timed_out: false,
        }));
        // One turn per connection per round, oldest connection first; a
        // token's deadline and readiness arrive as separate events.
        events.sort_unstable_by_key(|e| e.token);
        events.dedup_by(|later, earlier| {
            let same = later.token == earlier.token;
            if same {
                earlier.timed_out |= later.timed_out;
            }
            same
        });

        let mut admit = shared.cfg.dispatch_queue.max(1);
        for event in &events {
            let Some(conn) = conns.get_mut(&event.token) else {
                continue; // already closed; late edge or deadline
            };
            if turn(shared, conn, event.timed_out, &mut admit) {
                requeued.push(event.token);
            }
            finish_touch(shared, lp, &mut conns, event.token);
        }
    }

    // Shutdown: queued clients and every live connection see EOF.
    let queued = std::mem::take(&mut shared.accept.lock()[me]);
    lp.placed.fetch_sub(queued.len(), Ordering::Relaxed);
    drop(queued);
    let tokens: Vec<Token> = conns.keys().copied().collect();
    for token in tokens {
        close_conn(shared, lp, &mut conns, token);
    }
}

/// Registers this loop's queued connections with its poller.
fn accept_new(
    shared: &EngineShared,
    me: usize,
    conns: &mut HashMap<Token, Conn>,
    next_token: &mut u64,
) {
    let poller = &shared.loops[me].poller;
    let fresh = std::mem::take(&mut shared.accept.lock()[me]);
    for io in fresh {
        let token = Token(*next_token);
        *next_token += 1;
        // Interest first, watchers second: an edge can only arrive once
        // the poller already knows the token, so nothing is dropped as
        // stale.
        poller.register(token, Interest::READ);
        io.register(poller.watcher(token), poller.watcher(token));
        // Bytes may have landed before the watchers existed: seed with
        // the observed level.
        poller.inject(token, io.readiness_level());
        poller.set_deadline(token, Some(Instant::now() + shared.idle_timeout));
        conns.insert(token, Conn::new(io));
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let live = shared.stats.live.fetch_add(1, Ordering::Relaxed) + 1;
        shared.stats.max_live.fetch_max(live, Ordering::Relaxed);
    }
}

/// One connection's turn in a round: flush, read, serve at most one
/// request inline, flush. Returns whether to re-queue the connection for
/// the next round (invariant 1).
fn turn(shared: &EngineShared, conn: &mut Conn, timed_out: bool, admit: &mut usize) -> bool {
    let cap = shared.cfg.pipe_capacity;
    // Invariant 1: a drained out-buffer re-opens parsing before we parse.
    let mut progressed = flush(conn);
    // Invariant 2: re-check the in-buffer cap on every read.
    while conn.wants_read(cap) {
        match conn.io.try_read(&mut conn.inbuf) {
            TryRead::Data(_) => progressed = true,
            TryRead::Empty => break,
            TryRead::Closed => {
                conn.saw_eof = true;
                break;
            }
        }
    }
    let mut partial = false;
    if conn.wants_parse(cap) {
        match parse_request(&mut conn.inbuf, &shared.parser) {
            Ok(Some(req)) => {
                progressed = true;
                let resp = if *admit > 0 {
                    *admit -= 1;
                    serve(shared, conn, &req)
                } else {
                    shared.stats.shed_dispatch.fetch_add(1, Ordering::Relaxed);
                    MarketplaceGateway::overloaded()
                };
                conn.queue_response(resp, &req);
            }
            Ok(None) => {
                partial = true;
                if conn.saw_eof {
                    // Client is gone; whatever half-request remains can
                    // never complete.
                    conn.close_after_flush = true;
                    conn.inbuf.clear();
                }
            }
            Err(e) => {
                progressed = true;
                Response::text(e.status_code(), e.to_string())
                    .with_header("connection", "close")
                    .write_to(&mut conn.outbuf);
                conn.close_after_flush = true;
                conn.inbuf.clear();
            }
        }
    }
    // Invariant 3: a deadline is stale if this turn found work.
    if timed_out && !progressed {
        expire(shared, conn);
    }
    shared
        .stats
        .record_buffer(conn.inbuf.len() + conn.outbuf.len());
    flush(conn);
    !partial && conn.wants_parse(cap) && !conn.inbuf.is_empty()
}

/// Runs the gateway on `req`. A panicking handler fails only its own
/// request: it is answered `500` and its connection closes after the
/// answer, while the loop goes on serving its other connections.
fn serve(shared: &EngineShared, conn: &mut Conn, req: &Request) -> Response {
    match catch_unwind(AssertUnwindSafe(|| shared.gateway.handle(req))) {
        Ok(resp) => resp,
        Err(_) => {
            shared.stats.handler_panics.fetch_add(1, Ordering::Relaxed);
            conn.close_after_flush = true;
            Response::text(500, "internal error: the request handler panicked")
                .with_header("connection", "close")
        }
    }
}

/// Non-blocking write of as much buffered response as the pipe accepts
/// (all of it when the pipe is empty). Returns whether anything went.
fn flush(conn: &mut Conn) -> bool {
    let mut wrote = false;
    while !conn.outbuf.is_empty() {
        let n = conn.io.try_write(&conn.outbuf);
        if n == 0 {
            break; // peer's pipe is full; wait for a writable edge
        }
        let _ = conn.outbuf.split_to(n);
        wrote = true;
    }
    wrote
}

/// The connection's deadline fired and its turn found nothing to do.
fn expire(shared: &EngineShared, conn: &mut Conn) {
    if !conn.inbuf.is_empty() && !conn.close_after_flush {
        // Half a request arrived and then the line went quiet: tell the
        // client instead of silently hanging up (slowloris handling).
        shared.stats.timeouts_408.fetch_add(1, Ordering::Relaxed);
        Response::text(408, "timed out waiting for complete request")
            .with_header("connection", "close")
            .write_to(&mut conn.outbuf);
        conn.inbuf.clear();
        conn.close_after_flush = true;
        return;
    }
    // Idle (or already closing and the peer never drained): drop it.
    conn.outbuf.clear();
    conn.close_after_flush = true;
}

/// After a turn on `token`: retire the connection if it is done,
/// otherwise recompute interest + deadline.
fn finish_touch(
    shared: &EngineShared,
    lp: &LoopShared,
    conns: &mut HashMap<Token, Conn>,
    token: Token,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if conn.done() || (conn.saw_eof && conn.outbuf.is_empty() && conn.inbuf.is_empty()) {
        close_conn(shared, lp, conns, token);
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
        lp.poller.set_interest(token, desired);
        if enabled_read || enabled_write {
            // The edge may have passed while the interest was off; seed
            // the poller with the current level so it isn't lost.
            let level = conn.io.readiness_level();
            lp.poller.inject(
                token,
                Readiness {
                    readable: level.readable && enabled_read,
                    writable: level.writable && enabled_write,
                },
            );
        }
    }
    lp.poller
        .set_deadline(token, Some(Instant::now() + shared.idle_timeout));
}

/// Deregisters and drops one connection; its pipes close on drop, so a
/// blocked client wakes with EOF.
fn close_conn(
    shared: &EngineShared,
    lp: &LoopShared,
    conns: &mut HashMap<Token, Conn>,
    token: Token,
) {
    if let Some(conn) = conns.remove(&token) {
        drop(conn); // pipe close may fire one last watcher edge...
        lp.poller.deregister(token); // ...which this clears
        lp.placed.fetch_sub(1, Ordering::Relaxed);
        shared.stats.live.fetch_sub(1, Ordering::Relaxed);
    }
}
