//! The marketplace REST gateway: paper Fig. 1's "HTTP Layer parses HTTP
//! requests and forwards them to the correct grains".
//!
//! Every business transaction of the benchmark is exposed as a REST
//! endpoint; bodies are JSON. The gateway is platform-agnostic — it holds
//! an `Arc<dyn MarketplacePlatform>`, so any of the four bindings can sit
//! behind it.
//!
//! | Method & path | Transaction |
//! |---|---|
//! | `POST /ingest/sellers` | ingest a [`Seller`] |
//! | `POST /ingest/customers` | ingest a [`Customer`] |
//! | `POST /ingest/products` | ingest a [`Product`] + initial stock |
//! | `POST /customers/{customer}/cart/items` | add to cart |
//! | `POST /customers/{customer}/checkout` | Customer Checkout |
//! | `PATCH /products/{seller}/{product}/price` | Price Update |
//! | `DELETE /products/{seller}/{product}` | Product Delete |
//! | `PATCH /shipments/delivery` | Update Delivery (`?max_sellers=10`) |
//! | `GET /sellers/{seller}/dashboard` | Seller Dashboard |
//! | `GET /health`, `GET /counters` | liveness & diagnostics |
//! | `POST /admin/recovery-drill` | crash + measured recovery (dataflow cells) |
//! | `POST /admin/unwedge` | repair a wedged durable store |
//!
//! Routes are one `match` over the path's non-empty segments (a trailing
//! `/` or doubled `//` does not matter): no route's shape is 404, a
//! shape's other methods 405 with `allow`, a non-numeric `{id}` 400.

use crate::request::{Method, Request};
use crate::response::Response;
use om_common::entity::{Customer, Product, Seller};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::{Money, OmError};
use om_marketplace::api::{CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketplacePlatform};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The REST endpoints of the gateway, with the id segments they
/// capture, unparsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint<'a> {
    IngestSeller,
    IngestCustomer,
    IngestProduct,
    AddToCart { customer: &'a str },
    Checkout { customer: &'a str },
    PriceUpdate { seller: &'a str, product: &'a str },
    ProductDelete { seller: &'a str, product: &'a str },
    UpdateDelivery,
    SellerDashboard { seller: &'a str },
    Health,
    Counters,
    RecoveryDrill,
    Unwedge,
}

impl<'a> Endpoint<'a> {
    /// The endpoint `path` has the shape of, and the one method it
    /// answers; `None` when no route has that shape.
    fn route(path: &'a str) -> Option<(Method, Endpoint<'a>)> {
        use Endpoint::*;
        use Method::{Delete, Get, Patch, Post};
        // Four segments is the longest route; a fifth matches none.
        let mut segments = [""; 4];
        let mut n = 0;
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            *segments.get_mut(n)? = segment;
            n += 1;
        }
        Some(match segments[..n] {
            ["ingest", "sellers"] => (Post, IngestSeller),
            ["ingest", "customers"] => (Post, IngestCustomer),
            ["ingest", "products"] => (Post, IngestProduct),
            ["customers", customer, "cart", "items"] => (Post, AddToCart { customer }),
            ["customers", customer, "checkout"] => (Post, Checkout { customer }),
            ["products", seller, product, "price"] => (Patch, PriceUpdate { seller, product }),
            ["products", seller, product] => (Delete, ProductDelete { seller, product }),
            ["shipments", "delivery"] => (Patch, UpdateDelivery),
            ["sellers", seller, "dashboard"] => (Get, SellerDashboard { seller }),
            ["health"] => (Get, Health),
            ["counters"] => (Get, Counters),
            ["admin", "recovery-drill"] => (Post, RecoveryDrill),
            ["admin", "unwedge"] => (Post, Unwedge),
            _ => return None,
        })
    }

    /// Whether the endpoint mutates platform state. Mutations are shed
    /// with `503` while the durable store is wedged; reads (and the
    /// repair endpoint itself) stay available.
    fn mutates(self) -> bool {
        matches!(
            self,
            Endpoint::IngestSeller
                | Endpoint::IngestCustomer
                | Endpoint::IngestProduct
                | Endpoint::AddToCart { .. }
                | Endpoint::Checkout { .. }
                | Endpoint::PriceUpdate { .. }
                | Endpoint::ProductDelete { .. }
                | Endpoint::UpdateDelivery
        )
    }
}

/// Body of `POST /ingest/products`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestProductBody {
    /// The product to list.
    pub product: Product,
    /// Units in stock when it is listed.
    pub initial_stock: u32,
}

/// Body of `POST /customers/{customer}/checkout`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckoutBody {
    /// The cart lines to check out.
    pub items: Vec<CheckoutItem>,
    /// How the customer pays.
    pub method: om_common::entity::PaymentMethod,
}

/// Body of `PATCH /products/{seller}/{product}/price`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PriceUpdateBody {
    /// New price in cents.
    pub price: Money,
}

/// Response of `PATCH /shipments/delivery`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeliveryResult {
    /// Packages the delivery round marked delivered.
    pub packages_delivered: u32,
}

/// Gateway request counters (exposed at `GET /counters` alongside the
/// platform's own counters).
#[derive(Debug, Default)]
struct GatewayStats {
    requests: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
}

/// The HTTP-to-platform gateway.
pub struct MarketplaceGateway {
    platform: Arc<dyn MarketplacePlatform>,
    stats: GatewayStats,
}

impl MarketplaceGateway {
    /// Builds the platform for one `(platform, backend)` matrix cell
    /// through the marketplace factory and wraps it in a gateway — the
    /// HTTP-layer entry point to the platform×backend matrix.
    pub fn for_spec(spec: &om_marketplace::PlatformSpec) -> Self {
        Self::new(Arc::from(om_marketplace::build_platform(spec)))
    }

    /// A gateway over `platform`.
    pub fn new(platform: Arc<dyn MarketplacePlatform>) -> Self {
        MarketplaceGateway {
            platform,
            stats: GatewayStats::default(),
        }
    }

    /// The platform behind the gateway.
    pub fn platform(&self) -> &Arc<dyn MarketplacePlatform> {
        &self.platform
    }

    /// The load-shed response the connection engine emits for a request
    /// beyond its loop's per-round admission budget: `503` with a
    /// `retry-after` hint, mirroring how the gateway maps a saturated
    /// platform.
    pub fn overloaded() -> Response {
        Response::text(503, "server overloaded: admission budget spent")
            .with_header("retry-after", "1")
    }

    /// Handles one parsed request, producing a response. Never panics on
    /// user input; all failures map to 4xx/5xx.
    pub fn handle(&self, req: &Request) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        // HEAD is answered like GET; the server keeps the entity headers
        // (including content-length) and suppresses only the body bytes.
        let method = if req.method == Method::Head {
            Method::Get
        } else {
            req.method
        };
        let resp = match Endpoint::route(&req.path) {
            None => Response::text(404, "no such route"),
            Some((allowed, _)) if allowed != method => {
                Response::text(405, "method not allowed").with_header("allow", allowed.as_str())
            }
            Some((_, endpoint)) => self.dispatch(endpoint, req).unwrap_or_else(|resp| resp),
        };
        if (400..500).contains(&resp.status) {
            self.stats.client_errors.fetch_add(1, Ordering::Relaxed);
        } else if resp.status >= 500 {
            self.stats.server_errors.fetch_add(1, Ordering::Relaxed);
        }
        resp
    }

    /// `Err` carries an already-built error response (so `?`-style early
    /// returns read naturally inside the endpoint arms).
    fn dispatch(&self, endpoint: Endpoint<'_>, req: &Request) -> Result<Response, Response> {
        // Graceful degradation: a wedged durable store sheds every
        // mutation up front with an explicit retry hint. Bindings whose
        // business acks precede their (best-effort) grain-snapshot saves
        // would otherwise keep acking writes the store cannot persist.
        // Reads, health, counters and the repair endpoints stay up.
        if endpoint.mutates() && self.platform.is_wedged() {
            return Err(map_platform::<()>(Err(OmError::Wedged(
                "durable store is wedged; repair it via POST /admin/unwedge".into(),
            )))
            .unwrap_err());
        }
        match endpoint {
            // Liveness and wedge state only; every number is at
            // `/counters`.
            Endpoint::Health => Ok(Response::json(
                200,
                &serde_json::json!({
                    "status": "ok",
                    "platform": self.platform.kind().label(),
                    "backend": match self.platform.backend() {
                        Some(b) => b.label(),
                        None => "native",
                    },
                    // Whether platform state would survive a process
                    // crash (true only over the file-durable backend).
                    "durable": self.platform.backend().is_some_and(|b| b.is_durable()),
                    // Whether the durable store is currently wedged
                    // (mutations shed with 503 until an unwedge).
                    "wedged": self.platform.is_wedged(),
                }),
            )),
            Endpoint::Counters => {
                let mut counters = self.platform.counters();
                counters.insert(
                    "gateway_requests".into(),
                    self.stats.requests.load(Ordering::Relaxed),
                );
                counters.insert(
                    "gateway_client_errors".into(),
                    self.stats.client_errors.load(Ordering::Relaxed),
                );
                counters.insert(
                    "gateway_server_errors".into(),
                    self.stats.server_errors.load(Ordering::Relaxed),
                );
                Ok(Response::json(200, &counters))
            }
            // Crash the platform mid-epoch and restore it from its
            // durable checkpoint, returning the measured recovery — 501
            // on platforms without an injectable crash path.
            Endpoint::RecoveryDrill => match self.platform.crash_and_recover() {
                Some(outcome) => Ok(Response::json(200, &outcome)),
                None => Err(Response::text(
                    501,
                    "platform has no injectable crash-recovery path",
                )),
            },
            // Repair a wedged durable store in place (close, truncate the
            // torn never-acked tail, re-open, verify). Safe under live
            // traffic: concurrent commits see either the wedged 503 or
            // the healthy store. 501 on platforms without a wedge
            // concept; the error mapping (503, still wedged) when the
            // repair itself fails.
            Endpoint::Unwedge => match self.platform.unwedge() {
                Some(Ok(outcome)) => Ok(Response::json(200, &outcome)),
                Some(Err(e)) => Err(map_platform::<()>(Err(e)).unwrap_err()),
                None => Err(Response::text(
                    501,
                    "platform has no wedged-store repair path",
                )),
            },
            Endpoint::IngestSeller => {
                let seller: Seller = parse_body(req)?;
                map_platform(self.platform.ingest_seller(seller))?;
                Ok(Response::empty(201))
            }
            Endpoint::IngestCustomer => {
                let customer: Customer = parse_body(req)?;
                map_platform(self.platform.ingest_customer(customer))?;
                Ok(Response::empty(201))
            }
            Endpoint::IngestProduct => {
                let body: IngestProductBody = parse_body(req)?;
                map_platform(
                    self.platform
                        .ingest_product(body.product, body.initial_stock),
                )?;
                Ok(Response::empty(201))
            }
            Endpoint::AddToCart { customer } => {
                let customer = CustomerId(path_id("customer", customer)?);
                let item: CheckoutItem = parse_body(req)?;
                map_platform(self.platform.add_to_cart(customer, item))?;
                Ok(Response::empty(204))
            }
            Endpoint::Checkout { customer } => {
                let customer = CustomerId(path_id("customer", customer)?);
                let body: CheckoutBody = parse_body(req)?;
                let outcome = map_platform(self.platform.checkout(CheckoutRequest {
                    customer,
                    items: body.items,
                    method: body.method,
                }))?;
                let status = match &outcome {
                    CheckoutOutcome::Placed { .. } => 200,
                    CheckoutOutcome::Rejected(_) => 422,
                };
                Ok(Response::json(status, &outcome))
            }
            Endpoint::PriceUpdate { seller, product } => {
                let seller = SellerId(path_id("seller", seller)?);
                let product = ProductId(path_id("product", product)?);
                let body: PriceUpdateBody = parse_body(req)?;
                if !body.price.is_positive() {
                    return Err(Response::text(422, "price must be positive"));
                }
                map_platform(self.platform.price_update(seller, product, body.price))?;
                Ok(Response::empty(204))
            }
            Endpoint::ProductDelete { seller, product } => {
                let seller = SellerId(path_id("seller", seller)?);
                let product = ProductId(path_id("product", product)?);
                map_platform(self.platform.product_delete(seller, product))?;
                Ok(Response::empty(204))
            }
            Endpoint::UpdateDelivery => {
                let max_sellers = match req.query_param("max_sellers") {
                    // The paper's Update Delivery transaction uses 10.
                    None => 10usize,
                    Some(raw) => raw.parse().map_err(|_| {
                        Response::text(400, format!("bad max_sellers: {raw:?}"))
                    })?,
                };
                let delivered = map_platform(self.platform.update_delivery(max_sellers))?;
                Ok(Response::json(
                    200,
                    &DeliveryResult {
                        packages_delivered: delivered,
                    },
                ))
            }
            Endpoint::SellerDashboard { seller } => {
                let seller = SellerId(path_id("seller", seller)?);
                let dashboard = map_platform(self.platform.seller_dashboard(seller))?;
                Ok(Response::json(200, &dashboard))
            }
        }
    }
}

/// The id segment `{name}`, captured as `raw`; a 400 names both when it
/// is not a number.
fn path_id(name: &str, raw: &str) -> Result<u64, Response> {
    raw.parse()
        .map_err(|_| Response::text(400, format!("bad path parameter {{{name}}}: {raw:?}")))
}

fn parse_body<T: serde::de::DeserializeOwned>(req: &Request) -> Result<T, Response> {
    if let Some(ct) = req.headers.get("content-type") {
        const JSON: &[u8] = b"application/json";
        if !ct
            .as_bytes()
            .get(..JSON.len())
            .is_some_and(|p| p.eq_ignore_ascii_case(JSON))
        {
            return Err(Response::text(
                400,
                format!("expected application/json body, got {ct}"),
            ));
        }
    }
    serde_json::from_slice(&req.body)
        .map_err(|e| Response::text(400, format!("invalid JSON body: {e}")))
}

/// Maps platform errors onto HTTP status codes.
fn map_platform<T>(result: Result<T, OmError>) -> Result<T, Response> {
    result.map_err(|e| {
        let status = match &e {
            OmError::NotFound(_) => 404,
            OmError::Conflict(_) | OmError::TxAborted(_) => 409,
            OmError::Rejected(_) => 422,
            OmError::Unavailable(_) | OmError::Wedged(_) => 503,
            OmError::Timeout(_) => 408,
            OmError::Internal(_) => 500,
        };
        let resp = Response::json(
            status,
            &serde_json::json!({ "error": e.label(), "detail": e.to_string() }),
        );
        // A wedged store is an operational condition, not a bug: shed
        // with an explicit retry hint (an operator unwedge restores
        // service) and never a 500.
        if matches!(e, OmError::Wedged(_)) {
            resp.with_header("retry-after", "1")
        } else {
            resp
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use om_marketplace::EventualPlatform;

    fn gateway() -> MarketplaceGateway {
        MarketplaceGateway::new(Arc::new(EventualPlatform::new(Default::default())))
    }

    fn req(method: Method, target: &str, body: Option<serde_json::Value>) -> Request {
        let (path, query) = crate::request::decode_target(target).unwrap();
        let mut headers = crate::request::Headers::new();
        let body = match body {
            Some(v) => {
                headers.insert("content-type", "application/json");
                crate::response::json_bytes(&v)
            }
            None => Bytes::new(),
        };
        Request {
            method,
            path,
            raw_target: target.to_string(),
            query,
            version: crate::request::Version::Http11,
            headers,
            body,
        }
    }

    #[test]
    fn health_reports_platform_and_backend() {
        let g = gateway();
        let resp = g.handle(&req(Method::Get, "/health", None));
        assert_eq!(resp.status, 200);
        let v: serde_json::Value = resp.json_body().unwrap();
        assert_eq!(v["platform"], "orleans_eventual");
        assert_eq!(v["backend"], "eventual_kv");
        assert_eq!(v["durable"], false, "eventual_kv is memory-only");
    }

    #[test]
    fn health_reports_durability_of_the_file_backend() {
        use om_common::config::BackendKind;
        use om_marketplace::{PlatformKind, PlatformSpec};
        let g = MarketplaceGateway::for_spec(
            &PlatformSpec::new(PlatformKind::Transactional, BackendKind::FileDurable)
                .parallelism(2),
        );
        let v: serde_json::Value = g
            .handle(&req(Method::Get, "/health", None))
            .json_body()
            .unwrap();
        assert_eq!(v["backend"], "file_durable");
        assert_eq!(v["durable"], true);
    }

    #[test]
    fn health_reports_liveness_and_wedge_state_only() {
        let v: serde_json::Value = gateway()
            .handle(&req(Method::Get, "/health", None))
            .json_body()
            .unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["backend", "durable", "platform", "status", "wedged"],
            "{v:?}"
        );
    }

    #[test]
    fn counters_expose_group_commit_and_snapshot_metrics() {
        use om_common::config::BackendKind;
        use om_marketplace::{PlatformKind, PlatformSpec};
        let g = MarketplaceGateway::for_spec(
            &PlatformSpec::new(PlatformKind::Transactional, BackendKind::FileDurable)
                .parallelism(2),
        );
        // Drive one durable write through the platform so the write
        // path has something to report.
        let seller = om_common::entity::Seller::new(
            om_common::ids::SellerId(1),
            "s".into(),
            "cph".into(),
        );
        let body: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&seller).unwrap()).unwrap();
        assert_eq!(
            g.handle(&req(Method::Post, "/ingest/sellers", Some(body))).status,
            201
        );
        let counters: std::collections::BTreeMap<String, u64> = g
            .handle(&req(Method::Get, "/counters", None))
            .json_body()
            .unwrap();
        for metric in [
            "commits_per_sync",
            "group_flushes",
            "snapshot_delta_bytes",
            "compactions",
            "maintenance_errors",
        ] {
            assert!(
                counters.contains_key(&format!("storage.backend.{metric}")),
                "counters must expose storage.backend.{metric}: {counters:?}"
            );
        }
        assert_eq!(counters["storage.backend.maintenance_errors"], 0);
    }

    #[test]
    fn counters_expose_dataflow_worker_count() {
        use om_common::config::BackendKind;
        use om_marketplace::{PlatformKind, PlatformSpec};
        let g = MarketplaceGateway::for_spec(
            &PlatformSpec::new(PlatformKind::Dataflow, BackendKind::Eventual)
                .parallelism(4)
                .df_workers(2),
        );
        let counters: std::collections::BTreeMap<String, u64> = g
            .handle(&req(Method::Get, "/counters", None))
            .json_body()
            .unwrap();
        assert_eq!(
            counters["df.workers"], 2,
            "counters report the resolved epoch worker count: {counters:?}"
        );
    }

    #[test]
    fn gateway_builds_from_matrix_spec() {
        use om_common::config::BackendKind;
        use om_marketplace::{PlatformKind, PlatformSpec};
        let g = MarketplaceGateway::for_spec(
            &PlatformSpec::new(PlatformKind::Transactional, BackendKind::SnapshotIsolation)
                .parallelism(2),
        );
        let resp = g.handle(&req(Method::Get, "/health", None));
        let v: serde_json::Value = resp.json_body().unwrap();
        assert_eq!(v["platform"], "orleans_transactions");
        assert_eq!(v["backend"], "snapshot_isolation");
    }

    #[test]
    fn unknown_route_is_404_and_wrong_method_is_405() {
        let g = gateway();
        assert_eq!(g.handle(&req(Method::Get, "/nope", None)).status, 404);
        let resp = g.handle(&req(Method::Delete, "/health", None));
        assert_eq!(resp.status, 405);
        assert_eq!(resp.headers.get("allow"), Some("GET"));
    }

    #[test]
    fn bad_json_body_is_400() {
        let g = gateway();
        let mut r = req(Method::Post, "/ingest/sellers", None);
        r.headers.insert("content-type", "application/json");
        r.body = Bytes::from_static(b"{not json");
        assert_eq!(g.handle(&r).status, 400);
    }

    #[test]
    fn non_json_content_type_is_400() {
        let g = gateway();
        let mut r = req(Method::Post, "/ingest/sellers", None);
        r.headers.insert("content-type", "text/xml");
        r.body = Bytes::from_static(b"<seller/>");
        assert_eq!(g.handle(&r).status, 400);
    }

    #[test]
    fn non_numeric_path_id_is_400() {
        let g = gateway();
        let resp = g.handle(&req(Method::Get, "/sellers/abc/dashboard", None));
        assert_eq!(resp.status, 400);
        assert_eq!(&resp.body[..], br#"bad path parameter {seller}: "abc""#);
    }

    #[test]
    fn bad_max_sellers_is_400_and_default_is_accepted() {
        let g = gateway();
        let resp = g.handle(&req(Method::Patch, "/shipments/delivery?max_sellers=x", None));
        assert_eq!(resp.status, 400);
        let resp = g.handle(&req(Method::Patch, "/shipments/delivery", None));
        assert_eq!(resp.status, 200);
        let d: DeliveryResult = resp.json_body().unwrap();
        assert_eq!(d.packages_delivered, 0, "no orders yet");
    }

    #[test]
    fn counters_include_gateway_stats() {
        let g = gateway();
        let _ = g.handle(&req(Method::Get, "/nope", None));
        let resp = g.handle(&req(Method::Get, "/counters", None));
        assert_eq!(resp.status, 200);
        let counters: std::collections::BTreeMap<String, u64> = resp.json_body().unwrap();
        assert_eq!(counters["gateway_client_errors"], 1);
        assert!(counters["gateway_requests"] >= 2);
    }

    #[test]
    fn zero_price_update_is_rejected() {
        let g = gateway();
        let resp = g.handle(&req(
            Method::Patch,
            "/products/1/1/price",
            Some(serde_json::json!({"price": 0})),
        ));
        assert_eq!(resp.status, 422);
    }
}
