//! [`HttpPlatform`]: a [`MarketplacePlatform`] implementation that talks
//! to another platform *through the HTTP layer*.
//!
//! This closes the loop on paper Fig. 1: the benchmark driver can submit
//! its workload to the exact same surface a real deployment exposes —
//! every transaction serializes to an HTTP/1.1 request, crosses the
//! in-memory transport, and is parsed, routed and dispatched by the
//! gateway. Wrapping any binding in `HttpPlatform` therefore measures
//! the *full stack* rather than direct method calls (ablation A5 gives
//! the per-request difference).
//!
//! Connections are pooled per driver thread: each concurrent caller
//! leases a keep-alive connection, so the pool mirrors the persistent
//! connections of a load balancer fronting the silos.

use crate::conn::EventConfig;
use crate::error::HttpError;
use crate::gateway::{CheckoutBody, DeliveryResult, IngestProductBody, MarketplaceGateway, PriceUpdateBody};
use crate::request::Method;
use crate::server::{HttpClient, HttpServer};
use om_common::entity::{Customer, Product, Seller, SellerDashboard};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::{Money, OmError, OmResult};
use om_marketplace::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
    PlatformKind,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A pool of keep-alive client connections to one server.
struct ClientPool {
    server: Arc<HttpServer>,
    idle: Mutex<Vec<HttpClient>>,
}

impl ClientPool {
    fn lease(&self) -> HttpClient {
        self.idle
            .lock()
            .pop()
            .unwrap_or_else(|| self.server.connect())
    }

    fn give_back(&self, client: HttpClient) {
        self.idle.lock().push(client);
    }
}

/// A marketplace platform reached through its REST surface.
///
/// Holds the inner platform (for `quiesce`/`snapshot`, which are
/// benchmark-lifecycle operations rather than REST endpoints) and a
/// server + connection pool for everything else.
pub struct HttpPlatform {
    inner: Arc<dyn MarketplacePlatform>,
    server: Arc<HttpServer>,
    pool: ClientPool,
}

impl HttpPlatform {
    /// Fronts `platform` with an HTTP server of `workers` gateway
    /// workers.
    pub fn front(platform: Arc<dyn MarketplacePlatform>, workers: usize) -> Self {
        let server = Arc::new(HttpServer::start_event_driven(
            Arc::new(MarketplaceGateway::new(platform.clone())),
            EventConfig {
                workers,
                ..EventConfig::default()
            },
        ));
        HttpPlatform {
            inner: platform,
            server: server.clone(),
            pool: ClientPool {
                server,
                idle: Mutex::new(Vec::new()),
            },
        }
    }

    /// The server fronting the platform (e.g. to open extra clients).
    pub fn server(&self) -> &Arc<HttpServer> {
        &self.server
    }

    /// Performs one request on a pooled connection, mapping transport
    /// and HTTP-status failures onto [`OmError`].
    fn call(
        &self,
        method: Method,
        target: &str,
        body: Option<&serde_json::Value>,
    ) -> OmResult<crate::response::Response> {
        let mut client = self.pool.lease();
        let result = client.request(method, target, body);
        match result {
            Ok(resp) => {
                self.pool.give_back(client);
                if resp.is_success() || resp.status == 422 {
                    // 422 carries a meaningful body (rejected checkout).
                    Ok(resp)
                } else {
                    Err(status_to_error(&resp))
                }
            }
            Err(e @ HttpError::UnexpectedEof) => {
                // Connection died; don't pool it.
                Err(OmError::Unavailable(e.to_string()))
            }
            Err(e) => Err(OmError::Internal(format!("http client: {e}"))),
        }
    }
}

/// Maps a non-2xx gateway response back onto the platform error space
/// (inverse of the gateway's error mapping).
fn status_to_error(resp: &crate::response::Response) -> OmError {
    let detail = serde_json::from_slice::<serde_json::Value>(&resp.body)
        .ok()
        .and_then(|v| v.get("detail").and_then(|d| d.as_str()).map(String::from))
        .unwrap_or_else(|| String::from_utf8_lossy(&resp.body).into_owned());
    match resp.status {
        404 => OmError::NotFound(detail),
        408 => OmError::Timeout(detail),
        409 => OmError::Conflict(detail),
        422 => OmError::Rejected(detail),
        503 => OmError::Unavailable(detail),
        other => OmError::Internal(format!("HTTP {other}: {detail}")),
    }
}

impl MarketplacePlatform for HttpPlatform {
    fn kind(&self) -> PlatformKind {
        self.inner.kind()
    }

    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        self.call(
            Method::Post,
            "/ingest/sellers",
            Some(&serde_json::to_value(&seller).expect("serializable")),
        )?;
        Ok(())
    }

    fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        self.call(
            Method::Post,
            "/ingest/customers",
            Some(&serde_json::to_value(&customer).expect("serializable")),
        )?;
        Ok(())
    }

    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        let body = IngestProductBody {
            product,
            initial_stock,
        };
        self.call(
            Method::Post,
            "/ingest/products",
            Some(&serde_json::to_value(&body).expect("serializable")),
        )?;
        Ok(())
    }

    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        let body = CheckoutBody {
            items: request.items,
            method: request.method,
        };
        let resp = self.call(
            Method::Post,
            &format!("/customers/{}/checkout", request.customer.raw()),
            Some(&serde_json::to_value(&body).expect("serializable")),
        )?;
        resp.json_body()
            .map_err(|e| OmError::Internal(format!("checkout response body: {e}")))
    }

    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        self.call(
            Method::Post,
            &format!("/customers/{}/cart/items", customer.raw()),
            Some(&serde_json::to_value(&item).expect("serializable")),
        )?;
        Ok(())
    }

    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        let body = PriceUpdateBody { price };
        self.call(
            Method::Patch,
            &format!("/products/{}/{}/price", seller.raw(), product.raw()),
            Some(&serde_json::to_value(&body).expect("serializable")),
        )?;
        Ok(())
    }

    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        self.call(
            Method::Delete,
            &format!("/products/{}/{}", seller.raw(), product.raw()),
            None,
        )?;
        Ok(())
    }

    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        let resp = self.call(
            Method::Patch,
            &format!("/shipments/delivery?max_sellers={max_sellers}"),
            None,
        )?;
        let result: DeliveryResult = resp
            .json_body()
            .map_err(|e| OmError::Internal(format!("delivery response body: {e}")))?;
        Ok(result.packages_delivered)
    }

    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        let resp = self.call(
            Method::Get,
            &format!("/sellers/{}/dashboard", seller.raw()),
            None,
        )?;
        resp.json_body()
            .map_err(|e| OmError::Internal(format!("dashboard response body: {e}")))
    }

    fn quiesce(&self) {
        self.inner.quiesce();
    }

    fn snapshot(&self) -> OmResult<MarketSnapshot> {
        self.inner.snapshot()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let mut counters = self.inner.counters();
        // Merge the gateway-side counters under their gateway_ prefix.
        for (k, v) in self.server.gateway().platform().counters() {
            counters.entry(k).or_insert(v);
        }
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_marketplace::EventualPlatform;

    fn adapter() -> HttpPlatform {
        let inner = Arc::new(EventualPlatform::new(
            om_marketplace::bindings::actor_core::ActorPlatformConfig {
                decline_rate: 0.0,
                ..Default::default()
            },
        ));
        HttpPlatform::front(inner, 2)
    }

    fn seed(p: &HttpPlatform) {
        p.ingest_seller(Seller::new(SellerId(1), "s".into(), "c".into()))
            .unwrap();
        p.ingest_customer(Customer::new(CustomerId(1), "c".into(), "a".into()))
            .unwrap();
        p.ingest_product(
            Product {
                id: ProductId(1),
                seller: SellerId(1),
                name: "w".into(),
                category: "x".into(),
                description: "d".into(),
                price: Money::from_cents(500),
                freight_value: Money::from_cents(10),
                version: 0,
                active: true,
            },
            10,
        )
        .unwrap();
        p.quiesce();
    }

    #[test]
    fn checkout_through_the_wire_places_an_order() {
        let p = adapter();
        seed(&p);
        p.add_to_cart(
            CustomerId(1),
            CheckoutItem {
                seller: SellerId(1),
                product: ProductId(1),
                quantity: 2,
            },
        )
        .unwrap();
        let outcome = p
            .checkout(CheckoutRequest {
                customer: CustomerId(1),
                items: vec![CheckoutItem {
                    seller: SellerId(1),
                    product: ProductId(1),
                    quantity: 2,
                }],
                method: om_common::entity::PaymentMethod::CreditCard,
            })
            .unwrap();
        assert!(matches!(outcome, CheckoutOutcome::Placed { .. }));
        p.quiesce();
        assert!(p.update_delivery(10).unwrap() >= 1);
    }

    #[test]
    fn errors_map_back_onto_platform_error_space() {
        let p = adapter();
        seed(&p);
        // Unknown seller on delete → NotFound (carried as HTTP 404).
        let err = p.product_delete(SellerId(9), ProductId(99)).unwrap_err();
        assert!(
            matches!(err, OmError::NotFound(_) | OmError::Rejected(_)),
            "unexpected error class: {err:?}"
        );
    }

    #[test]
    fn dashboard_roundtrips_structurally() {
        let p = adapter();
        seed(&p);
        let dash = p.seller_dashboard(SellerId(1)).unwrap();
        assert_eq!(dash.seller, SellerId(1));
    }

    #[test]
    fn adapter_works_over_the_event_driven_engine() {
        let inner = Arc::new(EventualPlatform::new(
            om_marketplace::bindings::actor_core::ActorPlatformConfig {
                decline_rate: 0.0,
                ..Default::default()
            },
        ));
        let p = HttpPlatform::front(inner, 3);
        seed(&p);
        let dash = p.seller_dashboard(SellerId(1)).unwrap();
        assert_eq!(dash.seller, SellerId(1));
    }

    #[test]
    fn front_runs_workers_plus_one_threads_regardless_of_connections() {
        let inner = Arc::new(EventualPlatform::new(Default::default()));
        let p = HttpPlatform::front(inner, 3);
        let mut clients: Vec<_> = (0..16).map(|_| p.server().connect()).collect();
        for client in clients.iter_mut() {
            assert_eq!(client.request(Method::Get, "/health", None).unwrap().status, 200);
        }
        // 16 live keep-alive connections, yet the engine is still its
        // workers plus the poller thread.
        assert_eq!(p.server().stats().engine_threads, 3 + 1);
        for client in &clients {
            client.close();
        }
    }

    #[test]
    fn pooled_connections_are_reused() {
        let p = adapter();
        seed(&p);
        for _ in 0..32 {
            p.seller_dashboard(SellerId(1)).unwrap();
        }
        // A single sequential caller leases and returns one connection.
        assert_eq!(p.pool.idle.lock().len(), 1);
    }

    #[test]
    fn concurrent_callers_grow_the_pool_bounded_by_parallelism() {
        let p = Arc::new(adapter());
        seed(&p);
        let mut joins = Vec::new();
        for _ in 0..4 {
            let p = p.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..16 {
                    p.seller_dashboard(SellerId(1)).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let pooled = p.pool.idle.lock().len();
        assert!(
            (1..=4).contains(&pooled),
            "pool should hold between 1 and 4 connections, has {pooled}"
        );
    }
}
