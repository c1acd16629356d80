//! Integration: every one of the four platform bindings can sit behind
//! the HTTP layer (paper Fig. 1) and serve the five business
//! transactions over the wire.

use online_marketplace::http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use online_marketplace::marketplace::api::{MarketplacePlatform, PlatformKind};
use online_marketplace::marketplace::bindings::actor_core::ActorPlatformConfig;
use online_marketplace::marketplace::bindings::dataflow::{
    DataflowPlatform, DataflowPlatformConfig,
};
use online_marketplace::marketplace::{
    CustomizedPlatform, EventualPlatform, TransactionalPlatform,
};
use serde_json::json;
use std::sync::Arc;

fn platform(kind: PlatformKind) -> Arc<dyn MarketplacePlatform> {
    let actor = ActorPlatformConfig {
        decline_rate: 0.0,
        ..Default::default()
    };
    match kind {
        PlatformKind::Eventual => Arc::new(EventualPlatform::new(actor)),
        PlatformKind::Transactional => Arc::new(TransactionalPlatform::new(actor)),
        PlatformKind::Dataflow => Arc::new(DataflowPlatform::new(DataflowPlatformConfig {
            partitions: 2,
            max_batch: 64,
            decline_rate: 0.0,
            ..Default::default()
        })),
        PlatformKind::Customized => Arc::new(CustomizedPlatform::new(
            online_marketplace::marketplace::bindings::customized::CustomizedConfig {
                actor,
            },
        )),
    }
}

/// Runs the five transactions over HTTP and returns the final counters.
fn exercise(kind: PlatformKind) -> std::collections::BTreeMap<String, u64> {
    let server = HttpServer::start_event_driven(
        Arc::new(MarketplaceGateway::new(platform(kind))),
        EventConfig::default(),
    );
    let mut client = server.connect();

    // Ingestion.
    assert_eq!(
        client
            .request(
                Method::Post,
                "/ingest/sellers",
                Some(&json!({
                    "id": 1, "name": "s1", "city": "cph",
                    "order_entry_count": 0, "delivered_package_count": 0, "revenue": 0,
                })),
            )
            .unwrap()
            .status,
        201,
        "{kind:?} seller ingest"
    );
    assert_eq!(
        client
            .request(
                Method::Post,
                "/ingest/customers",
                Some(&json!({
                    "id": 1, "name": "c1", "address": "a",
                    "success_payment_count": 0, "failed_payment_count": 0,
                    "delivery_count": 0, "abandoned_cart_count": 0, "total_spent": 0,
                })),
            )
            .unwrap()
            .status,
        201
    );
    for p in 1..=2u64 {
        let resp = client
            .request(
                Method::Post,
                "/ingest/products",
                Some(&json!({
                    "product": {
                        "id": p, "seller": 1, "name": format!("p{p}"),
                        "category": "c", "description": "d",
                        "price": 1000, "freight_value": 10,
                        "version": 0, "active": true,
                    },
                    "initial_stock": 10,
                })),
            )
            .unwrap();
        assert_eq!(
            resp.status,
            201,
            "{kind:?} product ingest: {}",
            String::from_utf8_lossy(&resp.body)
        );
    }

    // Ingestion is asynchronous on the dataflow binding — drain it, as
    // the benchmark driver does between ingestion and workload phases.
    server.gateway().platform().quiesce();

    // Customer Checkout.
    assert_eq!(
        client
            .request(
                Method::Post,
                "/customers/1/cart/items",
                Some(&json!({"seller": 1, "product": 1, "quantity": 1})),
            )
            .unwrap()
            .status,
        204
    );
    let resp = client
        .request(
            Method::Post,
            "/customers/1/checkout",
            Some(&json!({
                "items": [{"seller": 1, "product": 1, "quantity": 1}],
                "method": "CreditCard",
            })),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{kind:?} checkout over HTTP");

    server.gateway().platform().quiesce();

    // Price Update.
    assert_eq!(
        client
            .request(Method::Patch, "/products/1/2/price", Some(&json!({"price": 777})))
            .unwrap()
            .status,
        204,
        "{kind:?} price update"
    );
    // Product Delete.
    assert_eq!(
        client
            .request(Method::Delete, "/products/1/2", None)
            .unwrap()
            .status,
        204,
        "{kind:?} product delete"
    );
    // Update Delivery.
    let resp = client
        .request(Method::Patch, "/shipments/delivery", None)
        .unwrap();
    assert_eq!(resp.status, 200);
    // Seller Dashboard.
    let resp = client
        .request(Method::Get, "/sellers/1/dashboard", None)
        .unwrap();
    assert_eq!(resp.status, 200, "{kind:?} dashboard");

    let counters: std::collections::BTreeMap<String, u64> = client
        .request(Method::Get, "/counters", None)
        .unwrap()
        .json_body()
        .unwrap();
    client.close();
    server.shutdown();
    counters
}

#[test]
fn eventual_platform_serves_all_transactions_over_http() {
    let counters = exercise(PlatformKind::Eventual);
    assert!(counters["gateway_requests"] >= 11);
    assert_eq!(counters["gateway_server_errors"], 0);
}

#[test]
fn transactional_platform_serves_all_transactions_over_http() {
    let counters = exercise(PlatformKind::Transactional);
    assert_eq!(counters["gateway_server_errors"], 0);
    assert!(
        counters.get("tx_commits").copied().unwrap_or(0) >= 1,
        "checkout must have committed a distributed transaction: {counters:?}"
    );
}

#[test]
fn dataflow_platform_serves_all_transactions_over_http() {
    let counters = exercise(PlatformKind::Dataflow);
    assert_eq!(counters["gateway_server_errors"], 0);
}

#[test]
fn customized_platform_serves_all_transactions_over_http() {
    let counters = exercise(PlatformKind::Customized);
    assert_eq!(counters["gateway_server_errors"], 0);
    assert!(
        counters.get("audit.records").copied().unwrap_or(0) >= 1,
        "customized stack must audit-log over HTTP too: {counters:?}"
    );
}
