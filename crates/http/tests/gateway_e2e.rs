//! End-to-end tests driving a marketplace platform through real HTTP/1.1
//! bytes: client → in-memory transport → parser → router → gateway →
//! platform, and back.

use om_http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use om_marketplace::{CustomizedPlatform, EventualPlatform};
use serde_json::json;
use std::sync::Arc;

fn start(gateway: Arc<MarketplaceGateway>) -> HttpServer {
    HttpServer::start_event_driven(gateway, EventConfig::default())
}

fn seller_json(id: u64) -> serde_json::Value {
    json!({
        "id": id,
        "name": format!("seller-{id}"),
        "city": "copenhagen",
        "order_entry_count": 0,
        "delivered_package_count": 0,
        "revenue": 0,
    })
}

fn customer_json(id: u64) -> serde_json::Value {
    json!({
        "id": id,
        "name": format!("customer-{id}"),
        "address": "universitetsparken 1",
        "success_payment_count": 0,
        "failed_payment_count": 0,
        "delivery_count": 0,
        "abandoned_cart_count": 0,
        "total_spent": 0,
    })
}

fn product_json(id: u64, seller: u64, price_cents: i64) -> serde_json::Value {
    json!({
        "product": {
            "id": id,
            "seller": seller,
            "name": format!("product-{id}"),
            "category": "books",
            "description": "a fine product",
            "price": price_cents,
            "freight_value": 100,
            "version": 0,
            "active": true,
        },
        "initial_stock": 100,
    })
}

/// Starts a server over the eventual binding with a small catalogue
/// ingested through the HTTP surface itself.
fn eventual_server() -> HttpServer {
    let platform = Arc::new(EventualPlatform::new(Default::default()));
    let server = start(Arc::new(MarketplaceGateway::new(platform)));
    let mut client = server.connect();
    for seller in 1..=2u64 {
        let resp = client
            .request(
                Method::Post,
                "/ingest/sellers",
                Some(&seller_json(seller)),
            )
            .unwrap();
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
    }
    for customer in 1..=3u64 {
        let resp = client
            .request(
                Method::Post,
                "/ingest/customers",
                Some(&customer_json(customer)),
            )
            .unwrap();
        assert_eq!(resp.status, 201);
    }
    for product in 1..=4u64 {
        let seller = if product <= 2 { 1 } else { 2 };
        let resp = client
            .request(
                Method::Post,
                "/ingest/products",
                Some(&product_json(product, seller, 1_000 * product as i64)),
            )
            .unwrap();
        assert_eq!(resp.status, 201);
    }
    client.close();
    server
}

fn add_and_checkout(client: &mut om_http::HttpClient, customer: u64, product: u64, seller: u64) -> om_http::Response {
    let item = json!({"seller": seller, "product": product, "quantity": 1});
    let resp = client
        .request(
            Method::Post,
            &format!("/customers/{customer}/cart/items"),
            Some(&item),
        )
        .unwrap();
    assert_eq!(resp.status, 204, "{}", String::from_utf8_lossy(&resp.body));
    client
        .request(
            Method::Post,
            &format!("/customers/{customer}/checkout"),
            Some(&json!({
                "items": [{"seller": seller, "product": product, "quantity": 1}],
                "method": "CreditCard",
            })),
        )
        .unwrap()
}

#[test]
fn full_checkout_lifecycle_over_http() {
    let server = eventual_server();
    let mut client = server.connect();

    let resp = add_and_checkout(&mut client, 1, 1, 1);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let outcome: serde_json::Value = resp.json_body().unwrap();
    assert!(
        outcome.get("Placed").is_some(),
        "expected Placed, got {outcome}"
    );

    // Let the asynchronous order → payment → shipment cascade drain,
    // then deliver through the HTTP surface.
    server.gateway().platform().quiesce();
    let resp = client
        .request(Method::Patch, "/shipments/delivery?max_sellers=10", None)
        .unwrap();
    assert_eq!(resp.status, 200);
    let delivered: serde_json::Value = resp.json_body().unwrap();
    assert!(
        delivered["packages_delivered"].as_u64().unwrap() >= 1,
        "a paid checkout must have produced at least one package: {delivered}"
    );

    client.close();
    server.shutdown();
}

#[test]
fn dashboard_price_update_and_delete_over_http() {
    let server = eventual_server();
    let mut client = server.connect();

    let resp = add_and_checkout(&mut client, 2, 3, 2);
    assert_eq!(resp.status, 200);
    server.gateway().platform().quiesce();

    let resp = client
        .request(Method::Get, "/sellers/2/dashboard", None)
        .unwrap();
    assert_eq!(resp.status, 200);
    let dash: serde_json::Value = resp.json_body().unwrap();
    assert_eq!(dash["seller"], 2);

    // Price Update propagates a new price to the cart replica.
    let resp = client
        .request(
            Method::Patch,
            "/products/2/3/price",
            Some(&json!({"price": 12_345})),
        )
        .unwrap();
    assert_eq!(resp.status, 204);

    // Product Delete converges Stock and Cart.
    let resp = client
        .request(Method::Delete, "/products/2/4", None)
        .unwrap();
    assert_eq!(resp.status, 204);

    // Deleting again is not found (soft-deleted products are gone
    // from the seller's perspective) or rejected; either way not a
    // 2xx.
    let resp = client
        .request(Method::Delete, "/products/2/4", None)
        .unwrap();
    assert!(
        !resp.is_success(),
        "double delete must not succeed: {}",
        resp.status
    );

    client.close();
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = eventual_server();
    let mut client = server.connect();

    // Three pipelined GETs: responses must come back in request order.
    client.send_request(Method::Get, "/health", None).unwrap();
    client
        .send_request(Method::Get, "/sellers/1/dashboard", None)
        .unwrap();
    client.send_request(Method::Get, "/counters", None).unwrap();

    let r1 = client.read_response().unwrap();
    assert_eq!(r1.status, 200);
    let v: serde_json::Value = r1.json_body().unwrap();
    assert_eq!(v["status"], "ok");

    let r2 = client.read_response().unwrap();
    assert_eq!(r2.status, 200);
    let dash: serde_json::Value = r2.json_body().unwrap();
    assert_eq!(dash["seller"], 1);

    let r3 = client.read_response().unwrap();
    assert_eq!(r3.status, 200);

    client.close();
    server.shutdown();
}

#[test]
fn malformed_framing_gets_error_response_and_close() {
    let server = eventual_server();
    let mut client = server.connect();
    client.send_raw(b"POST /ingest/sellers HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 5\r\n\r\nabc");
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(resp.headers.get("connection"), Some("close"));
    // The connection is gone afterwards.
    client.send_raw(b"GET /health HTTP/1.1\r\n\r\n");
    assert!(client.read_response().is_err());
    server.shutdown();
}

#[test]
fn unsupported_method_is_501() {
    let server = eventual_server();
    let mut client = server.connect();
    client.send_raw(b"BREW /coffee HTTP/1.1\r\n\r\n");
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 501);
    client.close();
    server.shutdown();
}

#[test]
fn connection_close_is_honored() {
    let server = eventual_server();
    let mut client = server.connect();
    client.send_raw(b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n");
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("connection"), Some("close"));
    assert!(
        client.read_response().is_err(),
        "server must close after Connection: close"
    );
    server.shutdown();
}

#[test]
fn head_matches_get_headers_with_no_body() {
    let server = eventual_server();
    let mut client = server.connect();
    let get = client.request(Method::Get, "/health", None).unwrap();
    assert_eq!(get.status, 200);
    assert!(!get.body.is_empty());
    let head = client.request(Method::Head, "/health", None).unwrap();
    assert_eq!(head.status, 200);
    assert!(head.body.is_empty(), "HEAD must not carry a body");
    // Header parity: HEAD advertises the *entity's* length, not 0.
    assert_eq!(
        head.headers.get("content-length"),
        get.headers.get("content-length"),
        "HEAD content-length must match GET's"
    );
    assert_eq!(
        head.headers.get("content-type"),
        get.headers.get("content-type")
    );
    // And the raw-bytes path used by older tests still works.
    client.send_raw(b"HEAD /health HTTP/1.1\r\n\r\n");
    let resp = client.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.is_empty());
    client.close();
    server.shutdown();
}

#[test]
fn concurrent_clients_checkout_in_parallel() {
    let server = Arc::new({
        let platform = Arc::new(EventualPlatform::new(Default::default()));
        start(Arc::new(MarketplaceGateway::new(platform)))
    });
    // Ingest catalogue.
    {
        let mut c = server.connect();
        for s in 1..=2u64 {
            assert_eq!(
                c.request(Method::Post, "/ingest/sellers", Some(&seller_json(s)))
                    .unwrap()
                    .status,
                201
            );
        }
        for cust in 1..=8u64 {
            assert_eq!(
                c.request(Method::Post, "/ingest/customers", Some(&customer_json(cust)))
                    .unwrap()
                    .status,
                201
            );
        }
        for p in 1..=4u64 {
            assert_eq!(
                c.request(
                    Method::Post,
                    "/ingest/products",
                    Some(&product_json(p, if p <= 2 { 1 } else { 2 }, 999))
                )
                .unwrap()
                .status,
                201
            );
        }
        c.close();
    }

    let mut joins = Vec::new();
    for customer in 1..=8u64 {
        let server = server.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = server.connect();
            let product = 1 + (customer % 4);
            let seller = if product <= 2 { 1 } else { 2 };
            let resp = add_and_checkout(&mut client, customer, product, seller);
            client.close();
            resp.status
        }));
    }
    for j in joins {
        let status = j.join().unwrap();
        assert!(
            status == 200 || status == 422,
            "checkout must either place or be rejected, got {status}"
        );
    }
    let server = Arc::into_inner(server).unwrap();
    server.shutdown();
}

/// The restart story end-to-end: a gateway cell built over a shared
/// backend instance persists its dataflow checkpoints into it; a second
/// gateway built over the same instance serves the first one's state.
#[test]
fn gateway_survives_a_platform_rebuild_from_persisted_state() {
    use om_common::config::BackendKind;
    use om_marketplace::{PlatformKind, PlatformSpec};

    let backend = om_storage::make_backend(BackendKind::SnapshotIsolation, 8);
    let spec = PlatformSpec::new(PlatformKind::Dataflow, BackendKind::SnapshotIsolation)
        .parallelism(2)
        .decline_rate(0.0)
        .backend_instance(backend.clone());

    // First life: ingest + checkout over HTTP, then shut everything
    // down.
    let server = start(Arc::new(MarketplaceGateway::for_spec(&spec)));
    let mut client = server.connect();
    assert_eq!(
        client
            .request(Method::Post, "/ingest/sellers", Some(&seller_json(1)))
            .unwrap()
            .status,
        201
    );
    assert_eq!(
        client
            .request(Method::Post, "/ingest/customers", Some(&customer_json(1)))
            .unwrap()
            .status,
        201
    );
    assert_eq!(
        client
            .request(Method::Post, "/ingest/products", Some(&product_json(1, 1, 2_500)))
            .unwrap()
            .status,
        201
    );
    // Dataflow ingestion is asynchronous (records flow through
    // epochs); drain before pricing the cart from the replica state.
    server.gateway().platform().quiesce();
    let resp = add_and_checkout(&mut client, 1, 1, 1);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    server.gateway().platform().quiesce();
    let resp = client
        .request(Method::Get, "/sellers/1/dashboard", None)
        .unwrap();
    assert_eq!(resp.status, 200);
    let dash_before: om_common::entity::SellerDashboard = resp.json_body().unwrap();
    assert!(dash_before.in_progress_count >= 1, "checkout must project");
    client.close();
    server.shutdown();

    // Second life: a fresh platform + gateway over the same backend.
    let server = start(Arc::new(MarketplaceGateway::for_spec(&spec)));
    let mut client = server.connect();
    let health = client.request(Method::Get, "/health", None).unwrap();
    let health: serde_json::Value = health.json_body().unwrap();
    assert_eq!(health["backend"], serde_json::Value::from("snapshot_isolation"));
    let resp = client
        .request(Method::Get, "/sellers/1/dashboard", None)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let dash_after: om_common::entity::SellerDashboard = resp.json_body().unwrap();
    assert_eq!(
        dash_after.in_progress_count, dash_before.in_progress_count,
        "the dashboard must survive the platform rebuild"
    );
    assert_eq!(dash_after.entries.len(), dash_before.entries.len());

    // The rebuilt platform still recovers from injected crashes.
    let drill = client
        .request(Method::Post, "/admin/recovery-drill", None)
        .unwrap();
    assert_eq!(drill.status, 200, "{}", String::from_utf8_lossy(&drill.body));
    let outcome: serde_json::Value = drill.json_body().unwrap();
    assert!(
        outcome["recovered_epoch"].as_u64().unwrap() >= 1,
        "drill must restart from a committed epoch: {outcome}"
    );
    assert_eq!(outcome["store"], serde_json::Value::from("snapshot_isolation"));
    client.close();
    server.shutdown();
}

/// Platforms without an injectable crash path answer the drill with 501.
#[test]
fn recovery_drill_is_501_on_platforms_without_a_crash_path() {
    let platform = Arc::new(EventualPlatform::new(Default::default()));
    let server = start(Arc::new(MarketplaceGateway::new(platform)));
    let mut client = server.connect();
    let resp = client
        .request(Method::Post, "/admin/recovery-drill", None)
        .unwrap();
    assert_eq!(resp.status, 501);
    client.close();
    server.shutdown();
}

#[test]
fn customized_platform_serves_snapshot_consistent_dashboard_over_http() {
    let platform = Arc::new(CustomizedPlatform::new(Default::default()));
    let server = start(Arc::new(MarketplaceGateway::new(platform)));
    let mut client = server.connect();

    for s in 1..=1u64 {
        assert_eq!(
            client
                .request(Method::Post, "/ingest/sellers", Some(&seller_json(s)))
                .unwrap()
                .status,
            201
        );
    }
    assert_eq!(
        client
            .request(Method::Post, "/ingest/customers", Some(&customer_json(1)))
            .unwrap()
            .status,
        201
    );
    assert_eq!(
        client
            .request(Method::Post, "/ingest/products", Some(&product_json(1, 1, 5_000)))
            .unwrap()
            .status,
        201
    );

    let resp = add_and_checkout(&mut client, 1, 1, 1);
    assert!(resp.status == 200 || resp.status == 422);
    server.gateway().platform().quiesce();

    let resp = client
        .request(Method::Get, "/sellers/1/dashboard", None)
        .unwrap();
    assert_eq!(resp.status, 200);
    let dash: om_common::entity::SellerDashboard = resp.json_body().unwrap();
    assert!(
        dash.is_snapshot_consistent(),
        "customized platform dashboard must be snapshot-consistent"
    );

    client.close();
    server.shutdown();
}
