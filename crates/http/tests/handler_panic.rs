//! A handler that panics fails its own request, not its event loop.
//!
//! The engine runs the gateway inline on the loop thread. A panic that
//! unwound out of the loop would end the thread: the panicking client
//! would see EOF, and every connection later placed on that loop would
//! wait out the idle timeout and see EOF too. The platform here panics on
//! every dashboard read; on a one-loop server the panicking request must
//! get `500` with `connection: close`, and a new connection must still be
//! served.

use om_common::config::BackendKind;
use om_common::entity::{Customer, Product, Seller, SellerDashboard};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::{Money, OmResult};
use om_http::{EventConfig, HttpServer, MarketplaceGateway, Method};
use om_marketplace::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
};
use om_marketplace::{EventualPlatform, PlatformKind, PlatformSpec};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// The eventual platform, except that a dashboard read panics.
struct PanickingDashboard(EventualPlatform);

impl MarketplacePlatform for PanickingDashboard {
    fn kind(&self) -> PlatformKind {
        self.0.kind()
    }
    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        self.0.ingest_seller(seller)
    }
    fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        self.0.ingest_customer(customer)
    }
    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        self.0.ingest_product(product, initial_stock)
    }
    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        self.0.checkout(request)
    }
    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        self.0.add_to_cart(customer, item)
    }
    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        self.0.price_update(seller, product, price)
    }
    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        self.0.product_delete(seller, product)
    }
    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        self.0.update_delivery(max_sellers)
    }
    fn seller_dashboard(&self, _seller: SellerId) -> OmResult<SellerDashboard> {
        panic!("dashboard handler panics on purpose");
    }
    fn quiesce(&self) {
        self.0.quiesce()
    }
    fn snapshot(&self) -> OmResult<MarketSnapshot> {
        self.0.snapshot()
    }
    fn counters(&self) -> BTreeMap<String, u64> {
        self.0.counters()
    }
}

#[test]
fn a_panicking_handler_leaves_its_loop_serving() {
    let platform = PanickingDashboard(EventualPlatform::new(&PlatformSpec::new(
        PlatformKind::Eventual,
        BackendKind::Eventual,
    )));
    let gateway = Arc::new(MarketplaceGateway::new(Arc::new(platform)));
    let server = Arc::new(HttpServer::start_event_driven(
        gateway,
        EventConfig {
            workers: 1,
            ..EventConfig::default()
        },
    ));

    // Each request runs on its own thread, so a dead loop fails the test
    // in seconds rather than after the server's idle timeout.
    let ask = |target: &'static str| {
        let (tx, rx) = mpsc::channel();
        let server = server.clone();
        let client = std::thread::spawn(move || {
            let mut client = server.connect();
            let _ = tx.send(client.request(Method::Get, target, None));
        });
        let answer = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("no answer to GET {target} within 5 s"));
        client.join().expect("the client thread does not panic");
        answer.unwrap_or_else(|e| panic!("GET {target} failed: {e}"))
    };

    let failed = ask("/sellers/1/dashboard");
    assert_eq!(failed.status, 500);
    assert_eq!(failed.headers.get("connection"), Some("close"));

    let health = ask("/health");
    assert_eq!(
        health.status, 200,
        "the loop must go on serving after a panic"
    );
    assert_eq!(server.stats().handler_panics, 1);
}
