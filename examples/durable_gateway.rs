//! The cold-crash walkthrough: a marketplace gateway whose state lives
//! on disk, built to be **killed**.
//!
//! Run it, let it commit some checkouts, `kill -9` it mid-stream, run it
//! again with the same data directory — the rebuilt platform recovers
//! every committed order from the WAL/snapshot files and the persistent
//! ingress log, and keeps serving where it left off. This is the README
//! walkthrough; all traffic travels as real HTTP/1.1 bytes through the
//! gateway.
//!
//! ```text
//! cargo run --release --example durable_gateway -- /tmp/om-demo &
//! sleep 2 && kill -9 %1          # hard crash, nothing flushed on exit
//! cargo run --release --example durable_gateway -- /tmp/om-demo
//! #   -> "recovered N committed orders from /tmp/om-demo"
//! rm -rf /tmp/om-demo            # start fresh
//! ```

use online_marketplace::common::config::BackendKind;
use online_marketplace::http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use online_marketplace::marketplace::{PlatformKind, PlatformSpec};
use serde_json::json;
use std::sync::Arc;

const CUSTOMERS: u64 = 4;
const CHECKOUTS: u64 = 2_000;

fn main() {
    let data_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/om-durable-gateway".to_string());

    // The file-durable matrix cell, rooted at the data directory: grain
    // state + epoch checkpoints under <dir>/state, the ingress log under
    // <dir>/ingress. Rebuilding this spec over the same directory IS the
    // recovery path.
    let spec = PlatformSpec::new(PlatformKind::Dataflow, BackendKind::FileDurable)
        .parallelism(4)
        .decline_rate(0.0)
        .data_dir(&data_dir);
    let server = HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::for_spec(&spec)),
        EventConfig::default(),
    );
    let mut client = server.connect();

    let resp = client.request(Method::Get, "/health", None).unwrap();
    println!("GET /health -> {}", String::from_utf8_lossy(&resp.body));

    // How much survived the last life? (Nothing on a fresh directory.)
    // Keyed on the recovered catalogue, not on orders, so a kill before
    // the first committed checkout does not re-ingest the catalogue.
    let (recovered_orders, ingested) = {
        let snap = server.gateway().platform().snapshot().unwrap();
        (snap.orders.len() as u64, snap.customers.len() as u64 >= CUSTOMERS)
    };
    if ingested {
        println!("recovered {recovered_orders} committed orders from {data_dir}");
    } else {
        println!("fresh start: ingesting catalogue into {data_dir}");
        let resp = client
            .request(
                Method::Post,
                "/ingest/sellers",
                Some(&json!({
                    "id": 1, "name": "acme", "city": "odense",
                    "order_entry_count": 0, "delivered_package_count": 0, "revenue": 0,
                })),
            )
            .unwrap();
        assert_eq!(resp.status, 201);
        for id in 1..=CUSTOMERS {
            let resp = client
                .request(
                    Method::Post,
                    "/ingest/customers",
                    Some(&json!({
                        "id": id, "name": format!("c{id}"), "address": "street 1",
                        "success_payment_count": 0, "failed_payment_count": 0,
                        "delivery_count": 0, "abandoned_cart_count": 0, "total_spent": 0,
                    })),
                )
                .unwrap();
            assert_eq!(resp.status, 201);
        }
        let resp = client
            .request(
                Method::Post,
                "/ingest/products",
                Some(&json!({
                    "product": {
                        "id": 1, "seller": 1, "name": "widget",
                        "category": "widgets", "description": "a fine widget",
                        "price": 9_99, "freight_value": 0, "version": 0, "active": true,
                    },
                    "initial_stock": 1_000_000,
                })),
            )
            .unwrap();
        assert_eq!(resp.status, 201);
        server.gateway().platform().quiesce();
    }

    // Commit checkouts until killed (or until the demo target). Every
    // accepted checkout is durable the moment it returns: its epoch
    // checkpoint is one framed WAL commit on disk.
    println!("committing checkouts — `kill -9` this process any time, then rerun");
    for i in recovered_orders..CHECKOUTS {
        let customer = (i % CUSTOMERS) + 1;
        let resp = client
            .request(
                Method::Post,
                &format!("/customers/{customer}/cart/items"),
                Some(&json!({"seller": 1, "product": 1, "quantity": 1})),
            )
            .unwrap();
        assert_eq!(resp.status, 204);
        let resp = client
            .request(
                Method::Post,
                &format!("/customers/{customer}/checkout"),
                Some(&json!({"items": [], "method": "CreditCard"})),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        if (i + 1) % 100 == 0 {
            println!("  {} checkouts committed (durable)", i + 1);
        }
    }
    println!("done: {CHECKOUTS} checkouts live in {data_dir}; rerun to see them recover, `rm -rf` to reset");
}
