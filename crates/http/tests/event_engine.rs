//! Regression + behavior tests for the connection engine: the event
//! loops' scaling/backpressure properties, placement and isolation, the
//! three invariants of running handlers inline, and the historical
//! serving bugs (per-connection state leak, shutdown hang, silent
//! idle-timeout close) that must stay fixed.

use bytes::BytesMut;
use om_common::OmResult;
use om_common::config::BackendKind;
use om_http::{Connection, EventConfig, HttpServer, MarketplaceGateway, Method, ServerOptions};
use om_marketplace::api::MarketplacePlatform;
use om_marketplace::{EventualPlatform, PlatformKind, PlatformSpec};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn eventual_gateway() -> Arc<MarketplaceGateway> {
    Arc::new(MarketplaceGateway::new(Arc::new(EventualPlatform::new(
        &PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual),
    ))))
}

/// Polls `cond` until it holds or `deadline` elapses.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let give_up = Instant::now() + deadline;
    while Instant::now() < give_up {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

// ---------------------------------------------------------------------
// Tentpole: event-loop scaling and thread count
// ---------------------------------------------------------------------

#[test]
fn event_engine_serves_many_keepalive_connections_with_constant_threads() {
    let cfg = EventConfig::default();
    // One loop per core this thread may use, at most `workers`.
    let loops = std::thread::available_parallelism()
        .map_or(cfg.workers, |cores| cfg.workers.min(cores.get()));
    let server = HttpServer::start_event_driven(eventual_gateway(), cfg);

    // 64 concurrent keep-alive connections, 8 pipelined requests each.
    let mut clients: Vec<_> = (0..64).map(|_| server.connect()).collect();
    for client in clients.iter_mut() {
        for _ in 0..8 {
            client.send_request(Method::Get, "/health", None).unwrap();
        }
    }
    for client in clients.iter_mut() {
        for _ in 0..8 {
            let resp = client.read_response().unwrap();
            assert_eq!(resp.status, 200);
        }
    }

    let stats = server.stats();
    assert_eq!(
        stats.engine_threads, loops,
        "event engine must stay one thread per loop regardless of connections"
    );
    assert_eq!(stats.live_connections, 64);
    assert!(stats.max_live_connections >= 64);
    assert_eq!(stats.accepted, 64);

    // Per-connection state is freed as connections close.
    for client in &clients {
        client.close();
    }
    drop(clients);
    assert!(
        wait_until(Duration::from_secs(5), || server.stats().live_connections == 0),
        "closed connections must be deregistered, got {:?}",
        server.stats()
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Satellite: serving-thread / per-connection state leak
// ---------------------------------------------------------------------

#[test]
fn connection_churn_does_not_accumulate_state() {
    let server = HttpServer::start_event_driven(eventual_gateway(), EventConfig::default());
    for _ in 0..60 {
        let mut client = server.connect();
        assert_eq!(client.request(Method::Get, "/health", None).unwrap().status, 200);
        client.close();
    }
    // All 60 connections are closed: live state must drain to zero.
    assert!(
        wait_until(Duration::from_secs(5), || server.stats().live_connections == 0),
        "engine leaked per-connection state: {:?}",
        server.stats()
    );
    let threads = server.stats().engine_threads;
    assert!(
        threads <= 8,
        "engine must not retain serving threads for closed connections; \
         still tracking {threads}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Satellite: shutdown must not hang on idle keep-alive clients
// ---------------------------------------------------------------------

#[test]
fn shutdown_with_idle_keepalive_clients_is_prompt() {
    let server = HttpServer::start_event_driven(eventual_gateway(), EventConfig::default());
    // Three idle keep-alive clients waiting for the next response slot.
    // Shutdown must not wait out their idle timeout (30s).
    let mut clients: Vec<_> = (0..3).map(|_| server.connect()).collect();
    for client in clients.iter_mut() {
        assert_eq!(client.request(Method::Get, "/health", None).unwrap().status, 200);
    }
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown took {took:?} with idle clients"
    );
    drop(clients);
}

// ---------------------------------------------------------------------
// Satellite: slowloris / idle-timeout behavior
// ---------------------------------------------------------------------

fn short_idle_server() -> HttpServer {
    HttpServer::start_with_options(
        eventual_gateway(),
        ServerOptions {
            idle_timeout: Duration::from_millis(100),
            ..ServerOptions::default()
        },
    )
}

#[test]
fn half_received_request_gets_408_on_idle_timeout() {
    let server = short_idle_server();
    let mut client = server.connect();
    // A slowloris client: starts a request and goes quiet.
    client.send_raw(b"GET /health HTTP/1.1\r\nhost: marketplace");
    let resp = client
        .read_response()
        .unwrap_or_else(|e| panic!("expected a 408, got {e}"));
    assert_eq!(resp.status, 408);
    assert_eq!(resp.headers.get("connection"), Some("close"));
    assert!(
        client.read_response().is_err(),
        "connection must be closed after the 408"
    );
    assert_eq!(server.stats().timeouts_408, 1);
    server.shutdown();
}

#[test]
fn idle_connection_with_no_buffered_bytes_closes_cleanly() {
    const IDLE: Duration = Duration::from_millis(400);
    // Scheduling delay allowed on a loaded host, past the sweep's own
    // cadence of `IDLE / 8`.
    const SLACK: Duration = Duration::from_millis(150);
    let server = HttpServer::start_with_options(
        eventual_gateway(),
        ServerOptions {
            idle_timeout: IDLE,
            event: EventConfig {
                workers: 1, // the busy connection shares the idle one's loop
                ..EventConfig::default()
            },
            ..ServerOptions::default()
        },
    );
    let started = Instant::now();
    let mut client = server.connect();
    // A second connection keeps the loop busy, so it never parks: the
    // sweep has to run between its rounds.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let busy = {
        let (mut busy, stop) = (server.connect(), stop.clone());
        std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                assert_eq!(
                    busy.request(Method::Get, "/health", None).unwrap().status,
                    200
                );
                served += 1;
            }
            busy.close();
            served
        })
    };
    // No bytes at all: the idle deadline must close without a 408.
    assert!(
        client.read_response().is_err(),
        "idle connection must see EOF"
    );
    let closed_after = started.elapsed();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(busy.join().unwrap() > 0, "the busy connection was served");
    assert!(
        closed_after >= IDLE,
        "closed after {closed_after:?}, before {IDLE:?}"
    );
    assert!(
        closed_after <= IDLE + IDLE / 8 + SLACK,
        "closed after {closed_after:?}: the sweep ran late"
    );
    assert_eq!(server.stats().timeouts_408, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Tentpole: per-round admission load-shed (503)
// ---------------------------------------------------------------------

/// Delegates to an [`EventualPlatform`] but parks `update_delivery`
/// until the test releases it — a deterministic way to wedge the event
/// loop that runs it — and pads `counters()` with `pad` entries of
/// ≈40 bytes each, for responses of a chosen size at `GET /counters`.
struct GatedPlatform {
    inner: EventualPlatform,
    entered: (Mutex<u32>, Condvar),
    released: (Mutex<bool>, Condvar),
    pad: usize,
}

impl GatedPlatform {
    fn new() -> Self {
        Self::with_counter_pad(0)
    }

    fn with_counter_pad(pad: usize) -> Self {
        GatedPlatform {
            inner: EventualPlatform::new(&PlatformSpec::new(
                PlatformKind::Eventual,
                BackendKind::Eventual,
            )),
            entered: (Mutex::new(0), Condvar::new()),
            released: (Mutex::new(false), Condvar::new()),
            pad,
        }
    }

    fn serve(self: &Arc<Self>, cfg: EventConfig) -> HttpServer {
        self.serve_with(ServerOptions {
            event: cfg,
            ..ServerOptions::default()
        })
    }

    fn serve_with(self: &Arc<Self>, opts: ServerOptions) -> HttpServer {
        let gateway = MarketplaceGateway::new(self.clone() as Arc<dyn MarketplacePlatform>);
        HttpServer::start_with_options(Arc::new(gateway), opts)
    }

    fn wait_for_entry(&self) {
        let (lock, cond) = &self.entered;
        let mut n = lock.lock();
        while *n == 0 {
            cond.wait_for(&mut n, Duration::from_secs(5));
        }
    }

    fn release(&self) {
        let (lock, cond) = &self.released;
        *lock.lock() = true;
        cond.notify_all();
    }
}

impl MarketplacePlatform for GatedPlatform {
    fn kind(&self) -> om_marketplace::PlatformKind {
        self.inner.kind()
    }
    fn ingest_seller(&self, seller: om_common::entity::Seller) -> OmResult<()> {
        self.inner.ingest_seller(seller)
    }
    fn ingest_customer(&self, customer: om_common::entity::Customer) -> OmResult<()> {
        self.inner.ingest_customer(customer)
    }
    fn ingest_product(
        &self,
        product: om_common::entity::Product,
        initial_stock: u32,
    ) -> OmResult<()> {
        self.inner.ingest_product(product, initial_stock)
    }
    fn checkout(
        &self,
        request: om_marketplace::api::CheckoutRequest,
    ) -> OmResult<om_marketplace::api::CheckoutOutcome> {
        self.inner.checkout(request)
    }
    fn add_to_cart(
        &self,
        customer: om_common::ids::CustomerId,
        item: om_marketplace::api::CheckoutItem,
    ) -> OmResult<()> {
        self.inner.add_to_cart(customer, item)
    }
    fn price_update(
        &self,
        seller: om_common::ids::SellerId,
        product: om_common::ids::ProductId,
        price: om_common::Money,
    ) -> OmResult<()> {
        self.inner.price_update(seller, product, price)
    }
    fn product_delete(
        &self,
        seller: om_common::ids::SellerId,
        product: om_common::ids::ProductId,
    ) -> OmResult<()> {
        self.inner.product_delete(seller, product)
    }
    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        {
            let (lock, cond) = &self.entered;
            *lock.lock() += 1;
            cond.notify_all();
        }
        let (lock, cond) = &self.released;
        let mut released = lock.lock();
        while !*released {
            cond.wait_for(&mut released, Duration::from_secs(5));
        }
        drop(released);
        self.inner.update_delivery(max_sellers)
    }
    fn seller_dashboard(
        &self,
        seller: om_common::ids::SellerId,
    ) -> OmResult<om_common::entity::SellerDashboard> {
        self.inner.seller_dashboard(seller)
    }
    fn quiesce(&self) {
        self.inner.quiesce()
    }
    fn snapshot(&self) -> OmResult<om_marketplace::api::MarketSnapshot> {
        self.inner.snapshot()
    }
    fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        let mut counters = self.inner.counters();
        for i in 0..self.pad {
            counters.insert(format!("pad.{i:06}.{}", "x".repeat(24)), i as u64);
        }
        counters
    }
}

#[test]
fn requests_past_the_round_budget_shed_with_503() {
    let platform = Arc::new(GatedPlatform::new());
    // One loop admitting one request per round.
    let server = platform.serve(EventConfig {
        workers: 1,
        dispatch_queue: 1,
        ..EventConfig::default()
    });

    let mut blocker = server.connect();
    blocker
        .send_request(Method::Patch, "/shipments/delivery?max_sellers=1", None)
        .unwrap();
    platform.wait_for_entry(); // the lone loop is now wedged inside it

    // Both requests wait in their pipes and are read in the same round,
    // oldest connection first; that round admits only one of them.
    let mut older = server.connect();
    older.send_request(Method::Get, "/health", None).unwrap();
    let mut younger = server.connect();
    younger.send_request(Method::Get, "/health", None).unwrap();

    platform.release();
    assert_eq!(blocker.read_response().unwrap().status, 200);
    assert_eq!(older.read_response().unwrap().status, 200);
    let shed = younger.read_response().unwrap();
    assert_eq!(shed.status, 503, "a request past the round's budget must load-shed");
    assert_eq!(shed.headers.get("retry-after"), Some("1"));
    assert!(server.stats().shed_dispatch >= 1);

    // The shed connection stays usable: the next round admits it.
    assert_eq!(younger.request(Method::Get, "/health", None).unwrap().status, 200);

    blocker.close();
    older.close();
    younger.close();
    server.shutdown();
}

// ---------------------------------------------------------------------
// Tentpole: accept-queue shed and pipe-cap backpressure
// ---------------------------------------------------------------------

#[test]
fn full_accept_queue_sheds_new_connections() {
    let server = HttpServer::start_event_driven(
        eventual_gateway(),
        EventConfig {
            accept_queue: 0, // every connect is over capacity
            ..EventConfig::default()
        },
    );
    let mut client = server.connect();
    assert!(
        client.read_response().is_err(),
        "shed connection must see immediate EOF"
    );
    assert!(server.stats().shed_accept >= 1);
    server.shutdown();
}

#[test]
fn pipe_cap_bounds_server_buffers_under_pipelining_flood() {
    const CAP: usize = 2048;
    const REQUESTS: usize = 1000;
    let server = HttpServer::start_event_driven(
        eventual_gateway(),
        EventConfig {
            pipe_capacity: CAP,
            ..EventConfig::default()
        },
    );
    let conn = Arc::new(server.connect_raw());

    // Writer floods pipelined requests from its own thread; its send
    // blocks whenever the capped client→server pipe fills (the
    // backpressure under test).
    let writer = {
        let conn = conn.clone();
        std::thread::spawn(move || {
            for _ in 0..REQUESTS {
                conn.send(b"GET /health HTTP/1.1\r\n\r\n");
            }
        })
    };

    // Reader parses all responses off the raw connection.
    let cfg = om_http::ParserConfig::default();
    let mut inbuf = BytesMut::new();
    let mut seen = 0usize;
    while seen < REQUESTS {
        match om_http::parse_response(&mut inbuf, &cfg).unwrap() {
            Some(resp) => {
                assert_eq!(resp.status, 200);
                seen += 1;
            }
            None => assert!(conn.read_into(&mut inbuf), "early EOF after {seen} responses"),
        }
    }
    writer.join().unwrap();

    // ~26 KiB of requests and ~120 KiB of responses flowed through, yet
    // per-connection memory stayed within a few times the pipe cap.
    let stats = server.stats();
    assert!(
        stats.max_conn_buffer_bytes <= 4 * CAP,
        "per-connection buffers must stay bounded by the cap, got {stats:?}"
    );
    conn.close();
    server.shutdown();
}

// ---------------------------------------------------------------------
// Tentpole: loops that run handlers inline — the three pitfalls
// ---------------------------------------------------------------------

const GET_HEALTH: &[u8] = b"GET /health HTTP/1.1\r\n\r\n";
const GET_COUNTERS: &[u8] = b"GET /counters HTTP/1.1\r\n\r\n";

/// Reads `n` responses off a raw connection, asserting each is a 200.
fn read_ok_responses(conn: &Connection, n: usize) {
    let cfg = om_http::ParserConfig::default();
    let mut inbuf = BytesMut::new();
    let mut seen = 0usize;
    while seen < n {
        match om_http::parse_response(&mut inbuf, &cfg).unwrap() {
            Some(resp) => {
                assert_eq!(resp.status, 200);
                seen += 1;
            }
            None => assert!(conn.read_into(&mut inbuf), "stalled after {seen} of {n} responses"),
        }
    }
}

#[test]
fn pipelined_requests_already_read_are_answered_when_a_full_out_buffer_drains() {
    const CAP: usize = 512;
    const REQUESTS: usize = 16;
    let server = HttpServer::start_event_driven(
        eventual_gateway(),
        EventConfig {
            workers: 1,
            pipe_capacity: CAP,
            ..EventConfig::default()
        },
    );
    let conn = server.connect_raw();
    // 400 bytes of requests: one pipe read moves all of them into the
    // server's in-buffer, so no later pipe edge can announce them.
    let requests = GET_HEALTH.repeat(REQUESTS);
    assert!(requests.len() < CAP);
    conn.send(&requests);
    // A slow reader: the pipe and then the out-buffer fill past the cap
    // and the loop stops parsing with most requests still buffered.
    std::thread::sleep(Duration::from_millis(100));
    read_ok_responses(&conn, REQUESTS);
    conn.close();
    server.shutdown();
}

#[test]
fn deadline_after_a_long_inline_handler_serves_the_request_waiting_in_its_pipe() {
    let platform = Arc::new(GatedPlatform::new());
    let server = platform.serve_with(ServerOptions {
        idle_timeout: Duration::from_millis(100),
        event: EventConfig {
            workers: 1,
            ..EventConfig::default()
        },
        ..ServerOptions::default()
    });
    let mut slow = server.connect();
    let mut waiting = server.connect();
    // Both registered: `waiting`'s idle deadline is armed from here.
    assert!(wait_until(Duration::from_secs(5), || server.stats().accepted == 2));
    let started = Instant::now();
    slow.send_request(Method::Patch, "/shipments/delivery?max_sellers=1", None)
        .unwrap();
    platform.wait_for_entry(); // the one loop now runs a 300 ms handler
    std::thread::sleep(Duration::from_millis(50));
    // A complete request, unread in its pipe while `waiting`'s deadline
    // passes under the handler.
    waiting.send_request(Method::Get, "/health", None).unwrap();
    std::thread::sleep(Duration::from_millis(300).saturating_sub(started.elapsed()));
    platform.release();

    let resp = waiting
        .read_response()
        .unwrap_or_else(|e| panic!("the waiting request must be served, got {e}"));
    assert_eq!(resp.status, 200, "not a 408: the request was complete");
    assert_eq!(slow.read_response().unwrap().status, 200);
    assert_eq!(server.stats().timeouts_408, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Tentpole: engine shape — placement, isolation, whole writes
// ---------------------------------------------------------------------

#[test]
fn connections_go_to_the_loop_with_the_fewest_live_connections() {
    let platform = Arc::new(GatedPlatform::new());
    let server = platform.serve(EventConfig {
        workers: 2,
        ..EventConfig::default()
    });
    let mut first = server.connect();
    let mut second = server.connect();
    first
        .send_request(Method::Patch, "/shipments/delivery?max_sellers=1", None)
        .unwrap();
    platform.wait_for_entry(); // `first`'s loop is wedged

    // On a fresh server the second connection took the other loop.
    assert_eq!(second.request(Method::Get, "/health", None).unwrap().status, 200);
    second.close();
    drop(second);
    assert!(
        wait_until(Duration::from_secs(5), || server.stats().live_connections == 1),
        "closed connection never retired: {:?}",
        server.stats()
    );
    // Its replacement fills the now-idle loop rather than doubling up
    // behind the wedge (where it would wait for the release).
    let mut third = server.connect();
    assert_eq!(third.request(Method::Get, "/health", None).unwrap().status, 200);

    platform.release();
    assert_eq!(first.read_response().unwrap().status, 200);
    first.close();
    third.close();
    server.shutdown();
}

#[test]
fn a_wedged_handler_does_not_delay_requests_on_the_other_loop() {
    let platform = Arc::new(GatedPlatform::new());
    let server = platform.serve(EventConfig {
        workers: 2,
        ..EventConfig::default()
    });
    let mut wedged = server.connect();
    let mut other = server.connect();
    wedged
        .send_request(Method::Patch, "/shipments/delivery?max_sellers=1", None)
        .unwrap();
    platform.wait_for_entry();

    let started = Instant::now();
    for _ in 0..50 {
        assert_eq!(other.request(Method::Get, "/health", None).unwrap().status, 200);
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "requests on the free loop took {:?}",
        started.elapsed()
    );

    platform.release();
    assert_eq!(wedged.read_response().unwrap().status, 200);
    wedged.close();
    other.close();
    server.shutdown();
}

#[test]
fn a_large_response_reaches_the_client_in_one_read() {
    // ≈240 KB of counters against the default 64 KiB pipe capacity.
    let platform = Arc::new(GatedPlatform::with_counter_pad(6_000));
    let server = platform.serve(EventConfig::default());
    let conn = server.connect_raw();
    conn.send(GET_COUNTERS);

    let mut inbuf = BytesMut::new();
    assert!(conn.read_into(&mut inbuf));
    let wire = inbuf.len();
    let resp = om_http::parse_response(&mut inbuf, &om_http::ParserConfig::default())
        .unwrap()
        .unwrap_or_else(|| panic!("only {wire} bytes arrived in the first read"));
    assert_eq!(resp.status, 200);
    assert!(wire >= 200 * 1024, "response is only {wire} bytes");
    assert!(inbuf.is_empty());
    conn.close();
    server.shutdown();
}

#[test]
fn a_client_that_never_reads_holds_bounded_buffers_and_stalls_no_one() {
    const CAP: usize = 4096;
    const REQUESTS: usize = 16;
    // ≈40 KB per `/counters` response: ten times the cap.
    let platform = Arc::new(GatedPlatform::with_counter_pad(1_000));
    let server = platform.serve(EventConfig {
        workers: 1, // every connection shares the one loop
        pipe_capacity: CAP,
        ..EventConfig::default()
    });
    let mut probe = server.connect();
    let mut wire = BytesMut::new();
    probe
        .request(Method::Get, "/counters", None)
        .unwrap()
        .write_to(&mut wire);
    // Slack for counter values that grow a digit between responses.
    let one_response = wire.len() + 64;
    probe.close();

    let stalled = server.connect_raw();
    stalled.send(&GET_COUNTERS.repeat(REQUESTS));
    std::thread::sleep(Duration::from_millis(50)); // its out-buffer fills
    let mut other = server.connect();
    for _ in 0..20 {
        assert_eq!(other.request(Method::Get, "/health", None).unwrap().status, 200);
    }
    let stats = server.stats();
    assert!(
        stats.max_conn_buffer_bytes <= CAP + one_response,
        "server buffers {} over cap {CAP} + one response {one_response}",
        stats.max_conn_buffer_bytes
    );

    // Once it reads, every response it asked for arrives.
    read_ok_responses(&stalled, REQUESTS);
    assert!(server.stats().max_conn_buffer_bytes <= CAP + one_response);
    stalled.close();
    other.close();
    server.shutdown();
}
