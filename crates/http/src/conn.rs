//! The event-driven connection engine: one event loop per core it may
//! use, at most `workers`, each owning the connections placed on it and
//! running the gateway inline.
//!
//! Instead of one OS thread per connection, each loop parks on its own
//! ready list, the tokens its connections' pipes marked. It parses a
//! request, calls [`MarketplaceGateway::handle`] on the loop thread, and
//! hands the whole response to the client in one wake: a write into an
//! empty server→client pipe is accepted whole. The engine owns exactly
//! its loops' threads however many keep-alive connections are open, and a
//! request crosses no thread between its bytes arriving and its response
//! leaving.
//!
//! The engine starts `min(workers, available_parallelism())` loops, read
//! from the affinity mask and CPU quota of the thread that starts it
//! (`workers` when that cannot be read). Loops beyond the cores would
//! only take turns on them: with two loops on one core, each request
//! parks one loop and wakes the other, where one loop serves both
//! connections back to back and parks only when neither has a request.
//! The price: on fewer cores than `workers`, a handler that blocks (a
//! dataflow epoch's `fsync`, a 2PL admission wait) delays every other
//! connection on its loop until it returns, as it does wherever
//! connections outnumber loops.
//!
//! A loop with a request always waiting never parks, so work its handlers
//! hand to other threads on the same core (silo workers' events) gets the
//! core only by preempting a handler, or piles up until a request blocks
//! on it. So a round that served a request ends by yielding the core once,
//! and silo workers run as `SCHED_BATCH`, which does not preempt the
//! handler that woke them: that work runs between rounds.
//!
//! A pipe marks its connection's token only for what the loop acts on:
//! bytes or EOF arriving from the client, and space that a client read
//! frees after the loop's write was refused. A client reading a response
//! that went out whole marks nothing, so it never wakes the loop.
//!
//! A new connection goes to the loop with the fewest live connections
//! (ties to the lowest index). Each loop then works in rounds:
//!
//! ```text
//! accept (one turn each) -> take the ready list (park while it is empty)
//!   -> sweep the idle deadlines when due
//!   -> for each marked, fresh or re-queued connection, oldest first:
//!     flush -> read (inbuf cap re-checked per read) -> parse one request
//!           -> admitted: gateway.handle inline (a panic: 500 + close)
//!              | over budget: 503
//!           -> serialize -> flush (whole write into an empty pipe)
//!     -> able to go on without a mark: re-queue for next round
//!     -> refresh the idle deadline, or close
//!   -> served a request: yield the core once
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
//!   in-buffer is at the cap it is not read, unless all it holds is the
//!   start of one request; bytes stay in the capped client→server pipe,
//!   and once that fills the *client's* blocking `send` parks — the
//!   in-memory analogue of a zero TCP receive window. A connection's
//!   out-buffer stays within `pipe_capacity` plus the largest single
//!   response (the server's own), its in-buffer under twice
//!   `pipe_capacity`, or under one request at the parser's limits
//!   (`max_head_bytes + max_body_bytes`) plus `pipe_capacity`. Past
//!   those limits the parser answers 413 or 431; a chunked request whose
//!   framing alone outgrows them is no longer read and times out 408;
//! * **idle deadlines**: each connection's deadline is `idle_timeout`
//!   after its last turn. The loop sweeps them at the earliest one, at
//!   most every `idle_timeout / 8`, and times out idle connections
//!   (clean close) and half-received requests (`408 Request Timeout` +
//!   `connection: close`).
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
//!
//! Beside invariant 1, one turn rule stands for what readiness interest
//! once did: a turn that stopped reading short, at the in-buffer cap or
//! with the out-buffer over it, and can now go on re-queues its
//! connection, since bytes left in the pipe raise no new mark. A fresh
//! connection gets one turn on accept, which reads whatever arrived
//! before its pipes could mark it.

use crate::gateway::MarketplaceGateway;
use crate::pipe::{Connection, TryRead};
use crate::request::{parse_request, Method, ParserConfig, Request};
use crate::response::Response;
use bytes::BytesMut;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the event-driven engine.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Most event loops, and so engine threads, to start: the engine
    /// starts `min(workers, available_parallelism())` of them. Each loop
    /// owns the connections placed on it and runs their gateway calls
    /// inline.
    pub workers: usize,
    /// Connections that may wait for their loop to accept them before
    /// new ones are shed.
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
    /// Connections currently accepted by a loop and not yet closed.
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
    /// Half-received requests answered 408 at their idle deadline.
    pub timeouts_408: u64,
    /// Requests whose handler panicked, answered 500 with
    /// `connection: close`; their loop went on serving.
    pub handler_panics: u64,
    /// High-water mark of one connection's `inbuf + outbuf` bytes.
    pub max_conn_buffer_bytes: usize,
    /// Threads owned by the engine: one per event loop it started, so
    /// `min(workers, available_parallelism())`.
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

/// Identifies one connection on its loop. A loop never reuses a token,
/// so a late mark for a closed connection never reaches a newer one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Token(u64);

/// One event loop's ready list: the tokens its connections' pipes marked
/// since the loop last took them, and whether another thread woke it (a
/// connection to accept, shutdown). Both change only under `state`, as
/// the `parking_lot` shim's sleeper count requires.
#[derive(Default)]
struct ReadyList {
    state: Mutex<Ready>,
    cond: Condvar,
}

#[derive(Default)]
struct Ready {
    tokens: Vec<Token>,
    woken: bool,
}

impl ReadyList {
    fn mark(&self, token: Token) {
        self.state.lock().tokens.push(token);
        self.cond.notify_one();
    }

    fn wake(&self) {
        self.state.lock().woken = true;
        self.cond.notify_one();
    }

    /// Appends the marked tokens to `out`, first parking for up to `wait`
    /// while none is marked and no wake is pending.
    fn take(&self, out: &mut Vec<Token>, wait: Duration) {
        let mut ready = self.state.lock();
        if ready.tokens.is_empty() && !ready.woken && !wait.is_zero() {
            self.cond.wait_for(&mut ready, wait);
        }
        ready.woken = false;
        out.append(&mut ready.tokens);
    }
}

/// What a connection's pipes mark: its token on its loop's ready list.
#[derive(Clone)]
pub(crate) struct Watcher {
    ready: Arc<ReadyList>,
    token: Token,
}

impl Watcher {
    pub(crate) fn mark(&self) {
        self.ready.mark(self.token);
    }
}

/// The part of one event loop other threads touch.
struct LoopShared {
    ready: Arc<ReadyList>,
    /// Connections placed on this loop and not yet closed, queued or
    /// accepted: what placement balances.
    placed: AtomicUsize,
}

struct EngineShared {
    loops: Vec<LoopShared>,
    /// Per loop, the connections placed on it and not yet accepted.
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
    /// The in-buffer starts with a request the parser could not finish,
    /// and no read has added to it since.
    incomplete: bool,
    /// Stop parsing and close once `outbuf` drains.
    close_after_flush: bool,
    saw_eof: bool,
    /// `idle_timeout` after the connection's last turn.
    deadline: Instant,
}

impl Conn {
    fn new(io: Connection, deadline: Instant) -> Conn {
        Conn {
            io,
            inbuf: BytesMut::with_capacity(1024),
            outbuf: BytesMut::new(),
            incomplete: false,
            close_after_flush: false,
            saw_eof: false,
            deadline,
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
    /// Past the cap it reads only to finish the one request the buffer
    /// starts with, up to the parser's head and body limits: once per
    /// parse that found the request unfinished.
    fn wants_read(&self, cap: usize, parser: &ParserConfig) -> bool {
        self.wants_parse(cap)
            && (self.inbuf.len() < cap
                || self.incomplete
                    && self.inbuf.len() < parser.max_head_bytes + parser.max_body_bytes)
    }

    /// Whether the loop can retire the connection: closing with nothing
    /// left to write, or the client gone with nothing left to serve.
    fn finished(&self) -> bool {
        self.outbuf.is_empty() && (self.close_after_flush || self.saw_eof && self.inbuf.is_empty())
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

/// The engine: one event-loop thread per core, at most `workers`, each
/// behind its own ready list.
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
        // More loops than cores only take turns on them, and a request
        // then pays one loop's park and another's wake.
        let n_loops = std::thread::available_parallelism()
            .map_or(cfg.workers, |cores| cfg.workers.min(cores.get()));
        let shared = Arc::new(EngineShared {
            loops: (0..n_loops)
                .map(|_| LoopShared {
                    ready: Arc::default(),
                    placed: AtomicUsize::new(0),
                })
                .collect(),
            accept: Mutex::new((0..n_loops).map(|_| VecDeque::new()).collect()),
            shutdown: AtomicBool::new(false),
            cfg: cfg.clone(),
            parser,
            idle_timeout,
            gateway,
            stats: StatCounters::default(),
        });
        let loops = (0..n_loops)
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
        target.ready.wake();
        client_end
    }

    pub(crate) fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot(self.shared.loops.len())
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
            l.ready.wake();
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
    let mut round: Vec<Token> = Vec::new();
    // Fresh and re-queued connections: next round's turns that no mark
    // announces.
    let mut next: Vec<Token> = Vec::new();
    let mut sweep_at = Instant::now() + shared.idle_timeout;

    while !shared.shutdown.load(Ordering::SeqCst) {
        accept_new(shared, me, &mut conns, &mut next_token, &mut next);
        let wait = if next.is_empty() {
            sweep_at.saturating_duration_since(Instant::now())
        } else {
            Duration::ZERO
        };
        std::mem::swap(&mut round, &mut next);
        lp.ready.take(&mut round, wait);
        let now = Instant::now();
        if now >= sweep_at {
            sweep_at = sweep(&conns, shared.idle_timeout, now, &mut round);
        }
        // One turn per connection per round, oldest connection first.
        round.sort_unstable();
        round.dedup();

        let mut admit = shared.cfg.dispatch_queue.max(1);
        for &token in &round {
            let Some(conn) = conns.get_mut(&token) else {
                continue; // already closed; a late mark
            };
            if turn(shared, conn, now, &mut admit) {
                next.push(token);
            }
            if conn.finished() {
                close_conn(shared, lp, &mut conns, token);
            }
        }
        round.clear();
        if admit < shared.cfg.dispatch_queue.max(1) {
            // Give the core once per serving round to the work handlers
            // handed to other threads on it (silo workers' events): a loop
            // that always has a request waiting never parks, and that
            // work would pile up until a request blocked on it.
            std::thread::yield_now();
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

/// Takes this loop's queued connections: each gets a token, a watcher
/// on its pipes and, in `next`, one turn.
fn accept_new(
    shared: &EngineShared,
    me: usize,
    conns: &mut HashMap<Token, Conn>,
    next_token: &mut u64,
    next: &mut Vec<Token>,
) {
    let fresh = std::mem::take(&mut shared.accept.lock()[me]);
    for io in fresh {
        let token = Token(*next_token);
        *next_token += 1;
        io.watch(Watcher {
            ready: shared.loops[me].ready.clone(),
            token,
        });
        conns.insert(token, Conn::new(io, Instant::now() + shared.idle_timeout));
        next.push(token);
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let live = shared.stats.live.fetch_add(1, Ordering::Relaxed) + 1;
        shared.stats.max_live.fetch_max(live, Ordering::Relaxed);
    }
}

/// Queues every connection whose idle deadline has passed for a turn,
/// and returns when to sweep next: at the earliest deadline left, but no
/// sooner than `idle_timeout / 8` from `now`. A deadline only ever moves
/// later, and a new connection's is the latest, so no sweep is missed.
fn sweep(
    conns: &HashMap<Token, Conn>,
    idle_timeout: Duration,
    now: Instant,
    round: &mut Vec<Token>,
) -> Instant {
    let mut earliest = now + idle_timeout;
    for (&token, conn) in conns {
        if conn.deadline <= now {
            round.push(token);
        } else {
            earliest = earliest.min(conn.deadline);
        }
    }
    earliest.max(now + idle_timeout / 8)
}

/// One connection's turn in a round: flush, read, serve at most one
/// request inline, flush. Returns whether to re-queue the connection for
/// the next round (invariant 1 and the turn rule beside it).
fn turn(shared: &EngineShared, conn: &mut Conn, now: Instant, admit: &mut usize) -> bool {
    let cap = shared.cfg.pipe_capacity;
    // Invariant 1: a drained out-buffer re-opens parsing before we parse.
    let mut progressed = flush(conn);
    // Invariant 2: re-check the in-buffer cap on every read.
    let mut read_short = false;
    loop {
        if !conn.wants_read(cap, &shared.parser) {
            read_short = true;
            break;
        }
        match conn.io.try_read(&mut conn.inbuf) {
            TryRead::Data(_) => {
                // Past the cap, one read per parse of the request.
                conn.incomplete = false;
                progressed = true;
            }
            TryRead::Empty => break,
            TryRead::Closed => {
                conn.saw_eof = true;
                break;
            }
        }
    }
    if conn.wants_parse(cap) {
        let parsed = parse_request(&mut conn.inbuf, &shared.parser);
        conn.incomplete = matches!(parsed, Ok(None));
        match parsed {
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
    if conn.deadline <= now && !progressed {
        expire(shared, conn);
    }
    shared
        .stats
        .record_buffer(conn.inbuf.len() + conn.outbuf.len());
    flush(conn);
    conn.deadline = Instant::now() + shared.idle_timeout;
    (read_short && conn.wants_read(cap, &shared.parser))
        || (conn.wants_parse(cap) && !conn.incomplete && !conn.inbuf.is_empty())
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
            break; // the client's pipe is full; its next read marks us
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

/// Drops one connection; its pipes close on drop, so a blocked client
/// wakes with EOF. The close may mark the token once more: the next
/// round skips it.
fn close_conn(
    shared: &EngineShared,
    lp: &LoopShared,
    conns: &mut HashMap<Token, Conn>,
    token: Token,
) {
    if conns.remove(&token).is_some() {
        lp.placed.fetch_sub(1, Ordering::Relaxed);
        shared.stats.live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mark_ends_a_park_and_is_taken_once() {
        let ready = Arc::new(ReadyList::default());
        let marker = {
            let ready = ready.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                ready.mark(Token(7));
            })
        };
        let started = Instant::now();
        let mut taken = Vec::new();
        while taken.is_empty() && started.elapsed() < Duration::from_secs(5) {
            ready.take(&mut taken, Duration::from_secs(10));
        }
        assert_eq!(taken, [Token(7)]);
        marker.join().unwrap();
        ready.take(&mut taken, Duration::from_millis(10));
        assert_eq!(taken, [Token(7)], "a mark is taken once");
    }

    #[test]
    fn a_wake_ends_a_park_with_nothing_marked() {
        let ready = Arc::new(ReadyList::default());
        let waker = {
            let ready = ready.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                ready.wake();
            })
        };
        let started = Instant::now();
        let mut taken = Vec::new();
        ready.take(&mut taken, Duration::from_secs(10));
        waker.join().unwrap();
        assert!(taken.is_empty());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the wake must end the park"
        );
        // A wake given while the loop is busy ends its next park at once.
        ready.wake();
        let started = Instant::now();
        ready.take(&mut taken, Duration::from_secs(10));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn a_turn_that_read_short_and_can_go_on_is_requeued() {
        const CAP: usize = 64;
        let shared = EngineShared {
            loops: Vec::new(),
            accept: Mutex::default(),
            shutdown: AtomicBool::new(false),
            cfg: EventConfig {
                pipe_capacity: CAP,
                ..EventConfig::default()
            },
            parser: ParserConfig::default(),
            idle_timeout: Duration::from_secs(30),
            gateway: Arc::new(MarketplaceGateway::new(Arc::new(
                om_marketplace::EventualPlatform::new(&om_marketplace::PlatformSpec::new(
                    om_marketplace::PlatformKind::Eventual,
                    om_common::config::BackendKind::Eventual,
                )),
            ))),
            stats: StatCounters::default(),
        };
        let (client, server) = Connection::duplex_with_capacity(CAP);
        let mut conn = Conn::new(server, Instant::now() + shared.idle_timeout);
        // A whole request over the cap is buffered, so the turn reads
        // nothing; the next request waits in the pipe, its mark taken.
        let padded = format!("GET /health HTTP/1.1\r\nx: {}\r\n\r\n", "x".repeat(CAP));
        conn.inbuf.extend_from_slice(padded.as_bytes());
        client.send(b"GET /health HTTP/1.1\r\n\r\n");
        let mut admit = 2;
        assert!(
            turn(&shared, &mut conn, Instant::now(), &mut admit),
            "the pipe holds a request no mark will announce"
        );
        assert!(
            !turn(&shared, &mut conn, Instant::now(), &mut admit),
            "the pipe and the in-buffer are drained"
        );
        assert_eq!(admit, 0, "both requests were served");
    }

    #[test]
    fn a_sweep_queues_what_expired_and_waits_for_the_earliest_deadline_left() {
        let idle = Duration::from_secs(8);
        let now = Instant::now();
        let conn = |deadline| Conn::new(Connection::duplex_with_capacity(16).1, deadline);
        let mut conns = HashMap::new();
        conns.insert(Token(1), conn(now + Duration::from_secs(5)));
        conns.insert(Token(2), conn(now));
        conns.insert(Token(3), conn(now + Duration::from_secs(3)));
        let mut round = Vec::new();
        assert_eq!(
            sweep(&conns, idle, now, &mut round),
            now + Duration::from_secs(3)
        );
        assert_eq!(round, [Token(2)]);
        // Never sooner than an eighth of the idle timeout, nor later
        // than a whole one.
        conns.insert(Token(4), conn(now + Duration::from_millis(10)));
        round.clear();
        assert_eq!(sweep(&conns, idle, now, &mut round), now + idle / 8);
        assert_eq!(round, [Token(2)]);
        assert_eq!(sweep(&HashMap::new(), idle, now, &mut round), now + idle);
    }
}
