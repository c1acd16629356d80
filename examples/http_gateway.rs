//! HTTP gateway: drive the full customized stack through its REST surface
//! (paper Fig. 1 — "HTTP Layer parses HTTP requests and forwards them to
//! the correct grains").
//!
//! Everything below travels as real HTTP/1.1 bytes through the in-memory
//! transport: ingestion, cart ops, checkout, a price update, a product
//! delete, the delivery batch, the seller dashboard, the routing edges
//! (404, 405 with `allow`, a trailing `/`), the counters and the two
//! admin routes. Every response's status is asserted, so a run that
//! finishes is a smoke test of all 13 routes through the engine.
//!
//! ```text
//! cargo run --release --example http_gateway
//! ```

use online_marketplace::http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use online_marketplace::common::config::BackendKind;
use online_marketplace::marketplace::{CustomizedPlatform, PlatformKind, PlatformSpec};
use serde_json::json;
use std::sync::Arc;

fn main() {
    // 1. The full-featured platform (transactions + MVCC dashboard +
    //    monotonic replica reads + audit count) behind the HTTP engine:
    //    `workers` event loops, each running its connections' requests
    //    inline.
    let spec = PlatformSpec::new(PlatformKind::Customized, BackendKind::Eventual);
    let platform = Arc::new(CustomizedPlatform::new(&spec));
    let server = HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::new(platform)),
        EventConfig::default(),
    );
    let mut client = server.connect();

    println!("== health ==");
    let resp = client.request(Method::Get, "/health", None).unwrap();
    println!("GET /health -> {} {}", resp.status, String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.status, 200);

    // 2. Ingest a catalogue over HTTP.
    for id in 1..=2u64 {
        let resp = client
            .request(
                Method::Post,
                "/ingest/sellers",
                Some(&json!({
                    "id": id, "name": format!("seller-{id}"), "city": "copenhagen",
                    "order_entry_count": 0, "delivered_package_count": 0, "revenue": 0,
                })),
            )
            .unwrap();
        assert_eq!(resp.status, 201);
    }
    let resp = client
        .request(
            Method::Post,
            "/ingest/customers",
            Some(&json!({
                "id": 1, "name": "ada", "address": "street 1",
                "success_payment_count": 0, "failed_payment_count": 0,
                "delivery_count": 0, "abandoned_cart_count": 0, "total_spent": 0,
            })),
        )
        .unwrap();
    assert_eq!(resp.status, 201);
    for (id, seller, cents) in [(1u64, 1u64, 19_99i64), (2, 1, 5_49), (3, 2, 12_00)] {
        let resp = client
            .request(
                Method::Post,
                "/ingest/products",
                Some(&json!({
                    "product": {
                        "id": id, "seller": seller, "name": format!("widget-{id}"),
                        "category": "widgets", "description": "a fine widget",
                        "price": cents, "freight_value": 100, "version": 0, "active": true,
                    },
                    "initial_stock": 50,
                })),
            )
            .unwrap();
        assert_eq!(resp.status, 201);
    }
    println!("ingested 2 sellers, 1 customer, 3 products");

    // 3. Cart, then checkout.
    println!("\n== checkout ==");
    for (product, seller, qty) in [(1u64, 1u64, 2u32), (3, 2, 1)] {
        let resp = client
            .request(
                Method::Post,
                "/customers/1/cart/items",
                Some(&json!({"seller": seller, "product": product, "quantity": qty})),
            )
            .unwrap();
        assert_eq!(resp.status, 204);
    }
    let resp = client
        .request(
            Method::Post,
            "/customers/1/checkout",
            Some(&json!({
                "items": [
                    {"seller": 1, "product": 1, "quantity": 2},
                    {"seller": 2, "product": 3, "quantity": 1},
                ],
                "method": "CreditCard",
            })),
        )
        .unwrap();
    println!(
        "POST /customers/1/checkout -> {} {}",
        resp.status,
        String::from_utf8_lossy(&resp.body)
    );
    // 200 placed, or 422 for a payment the platform declined.
    assert!(matches!(resp.status, 200 | 422), "checkout -> {}", resp.status);

    // 4. Let the cascade drain; price-update, delete and deliver.
    server.gateway().platform().quiesce();

    println!("\n== seller operations ==");
    let resp = client
        .request(Method::Patch, "/products/1/2/price", Some(&json!({"price": 6_99})))
        .unwrap();
    println!("PATCH /products/1/2/price -> {}", resp.status);
    assert_eq!(resp.status, 204);

    let resp = client.request(Method::Delete, "/products/1/2", None).unwrap();
    println!("DELETE /products/1/2 -> {}", resp.status);
    assert_eq!(resp.status, 204);

    let resp = client
        .request(Method::Patch, "/shipments/delivery?max_sellers=10", None)
        .unwrap();
    println!(
        "PATCH /shipments/delivery -> {} {}",
        resp.status,
        String::from_utf8_lossy(&resp.body)
    );
    assert_eq!(resp.status, 200);

    // 5. The snapshot-consistent dashboard (MVCC offload).
    println!("\n== dashboards ==");
    for seller in 1..=2u64 {
        let resp = client
            .request(Method::Get, &format!("/sellers/{seller}/dashboard"), None)
            .unwrap();
        assert_eq!(resp.status, 200);
        let dash: online_marketplace::common::entity::SellerDashboard =
            resp.json_body().unwrap();
        println!(
            "GET /sellers/{seller}/dashboard -> {} in-progress={} entries={} consistent={}",
            resp.status,
            dash.in_progress_amount,
            dash.entries.len(),
            dash.is_snapshot_consistent(),
        );
        assert!(dash.is_snapshot_consistent());
    }

    // 6. Routing edges: no route's shape, a shape's other method, and a
    //    trailing slash.
    println!("\n== routing ==");
    let resp = client.request(Method::Get, "/nope", None).unwrap();
    println!("GET /nope -> {}", resp.status);
    assert_eq!(resp.status, 404);
    let resp = client
        .request(Method::Get, "/customers/1/checkout", None)
        .unwrap();
    println!(
        "GET /customers/1/checkout -> {} allow: {:?}",
        resp.status,
        resp.headers.get("allow")
    );
    assert_eq!(resp.status, 405);
    assert_eq!(resp.headers.get("allow"), Some("POST"));
    let resp = client.request(Method::Get, "/health/", None).unwrap();
    println!("GET /health/ -> {}", resp.status);
    assert_eq!(resp.status, 200);

    // 7. Gateway + platform counters.
    println!("\n== counters ==");
    let resp = client.request(Method::Get, "/counters", None).unwrap();
    assert_eq!(resp.status, 200);
    let counters: std::collections::BTreeMap<String, u64> = resp.json_body().unwrap();
    for (k, v) in &counters {
        println!("{k:<40} {v}");
    }
    assert_eq!(counters.get("gateway_server_errors"), Some(&0));

    // 8. The admin routes: a memory-backed customized cell has no crash
    //    drill and no store to unwedge, so both answer 501.
    println!("\n== admin ==");
    for path in ["/admin/recovery-drill", "/admin/unwedge"] {
        let resp = client.request(Method::Post, path, None).unwrap();
        println!("POST {path} -> {}", resp.status);
        assert_eq!(resp.status, 501);
    }

    // 9. Engine stats: every request above ran on one thread per event
    //    loop, however many connections there were.
    let stats = server.stats();
    println!(
        "\n== engine ==\n{} threads, peak {} live connection(s), {} accepted",
        stats.engine_threads,
        stats.max_live_connections,
        stats.accepted,
    );

    client.close();
    server.shutdown();
    println!("\ndone.");
}
