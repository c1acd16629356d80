//! HTTP gateway: drive the full customized stack through its REST surface
//! (paper Fig. 1 — "HTTP Layer parses HTTP requests and forwards them to
//! the correct grains").
//!
//! Everything below travels as real HTTP/1.1 bytes through the in-memory
//! transport: ingestion, cart ops, checkout, a price update, a product
//! delete, the delivery batch and the seller dashboard.
//!
//! ```text
//! cargo run --release --example http_gateway
//! ```

use online_marketplace::http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use online_marketplace::marketplace::CustomizedPlatform;
use serde_json::json;
use std::sync::Arc;

fn main() {
    // 1. The full-featured platform (transactions + MVCC dashboard +
    //    causal replication + audit log) behind the HTTP engine: one
    //    poll loop + a fixed worker pool serves every connection.
    let platform = Arc::new(CustomizedPlatform::new(Default::default()));
    let server = HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::new(platform)),
        EventConfig::default(),
    );
    let mut client = server.connect();

    println!("== health ==");
    let resp = client.request(Method::Get, "/health", None).unwrap();
    println!("GET /health -> {} {}", resp.status, String::from_utf8_lossy(&resp.body));

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

    // 4. Let the cascade drain; price-update, delete and deliver.
    server.gateway().platform().quiesce();

    println!("\n== seller operations ==");
    let resp = client
        .request(Method::Patch, "/products/1/2/price", Some(&json!({"price": 6_99})))
        .unwrap();
    println!("PATCH /products/1/2/price -> {}", resp.status);

    let resp = client.request(Method::Delete, "/products/1/2", None).unwrap();
    println!("DELETE /products/1/2 -> {}", resp.status);

    let resp = client
        .request(Method::Patch, "/shipments/delivery?max_sellers=10", None)
        .unwrap();
    println!(
        "PATCH /shipments/delivery -> {} {}",
        resp.status,
        String::from_utf8_lossy(&resp.body)
    );

    // 5. The snapshot-consistent dashboard (MVCC offload).
    println!("\n== dashboards ==");
    for seller in 1..=2u64 {
        let resp = client
            .request(Method::Get, &format!("/sellers/{seller}/dashboard"), None)
            .unwrap();
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

    // 6. Gateway + platform counters.
    println!("\n== counters ==");
    let resp = client.request(Method::Get, "/counters", None).unwrap();
    let counters: std::collections::BTreeMap<String, u64> = resp.json_body().unwrap();
    for (k, v) in counters {
        println!("{k:<40} {v}");
    }

    // 7. Engine stats: the whole session ran on O(workers + 1) threads.
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
