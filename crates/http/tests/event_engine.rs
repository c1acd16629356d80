//! Regression + behavior tests for the connection engine: the event
//! loop's scaling/backpressure properties, and the historical serving
//! bugs (per-connection state leak, shutdown hang, silent idle-timeout
//! close) that must stay fixed.

use bytes::BytesMut;
use om_common::OmResult;
use om_http::{EventConfig, HttpServer, MarketplaceGateway, Method, ServerOptions};
use om_marketplace::api::MarketplacePlatform;
use om_marketplace::EventualPlatform;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn eventual_gateway() -> Arc<MarketplaceGateway> {
    Arc::new(MarketplaceGateway::new(Arc::new(EventualPlatform::new(
        Default::default(),
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
    let workers = cfg.workers;
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
        stats.engine_threads,
        workers + 1,
        "event engine must stay O(workers + 1) threads regardless of connections"
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
    let server = short_idle_server();
    let mut client = server.connect();
    // No bytes at all: the idle deadline must close without a 408.
    assert!(
        client.read_response().is_err(),
        "idle connection must see EOF"
    );
    assert_eq!(server.stats().timeouts_408, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Tentpole: dispatch-queue load-shed (503)
// ---------------------------------------------------------------------

/// Delegates to an [`EventualPlatform`] but parks `update_delivery`
/// until the test releases it — a deterministic way to wedge the
/// engine's single worker.
struct GatedPlatform {
    inner: EventualPlatform,
    entered: (Mutex<u32>, Condvar),
    released: (Mutex<bool>, Condvar),
}

impl GatedPlatform {
    fn new() -> Self {
        GatedPlatform {
            inner: EventualPlatform::new(Default::default()),
            entered: (Mutex::new(0), Condvar::new()),
            released: (Mutex::new(false), Condvar::new()),
        }
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
        self.inner.counters()
    }
}

#[test]
fn full_dispatch_queue_sheds_with_503() {
    let platform = Arc::new(GatedPlatform::new());
    let gateway = Arc::new(MarketplaceGateway::new(
        platform.clone() as Arc<dyn MarketplacePlatform>
    ));
    // One worker, one queue slot: the third concurrent request cannot
    // even be queued and must be shed.
    let server = HttpServer::start_event_driven(
        gateway,
        EventConfig {
            workers: 1,
            dispatch_queue: 1,
            ..EventConfig::default()
        },
    );

    let mut blocker = server.connect();
    blocker
        .send_request(Method::Patch, "/shipments/delivery?max_sellers=1", None)
        .unwrap();
    platform.wait_for_entry(); // the lone worker is now wedged

    let mut queued = server.connect();
    queued.send_request(Method::Get, "/health", None).unwrap();
    // Wait until the event loop has moved the queued request into the
    // dispatch queue's single slot — from here on a third request
    // deterministically cannot be queued.
    assert!(
        wait_until(Duration::from_secs(5), || server.stats().dispatch_queued == 1),
        "request never reached the dispatch queue: {:?}",
        server.stats()
    );

    let mut shed = server.connect();
    let resp = shed.request(Method::Get, "/health", None).unwrap();
    assert_eq!(resp.status, 503, "queue full must load-shed");
    assert_eq!(resp.headers.get("retry-after"), Some("1"));
    assert!(server.stats().shed_dispatch >= 1);

    // Release the gate: the wedged and queued requests complete normally.
    platform.release();
    assert_eq!(blocker.read_response().unwrap().status, 200);
    assert_eq!(queued.read_response().unwrap().status, 200);

    blocker.close();
    queued.close();
    shed.close();
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
