//! The **Orleans Eventual** binding (paper §III): eventually consistent
//! actor messaging.
//!
//! Checkout seals the cart and fires the reservation events, then returns
//! — "it does not ensure all actions are complete as part of a business
//! transaction but exhibits the highest throughput". The order → payment
//! → shipment pipeline runs as an asynchronous event cascade across
//! grains; under fault injection (dropped/duplicated events) the cascade
//! leaves partial effects the criteria auditor quantifies.

use om_common::entity::{Customer, Product, Seller, SellerDashboard};
use om_common::ids::{CustomerId, ProductId, SellerId};
use om_common::{Money, OmResult};

use super::actor_core::{unexpected, ActorCore, ActorPlatformConfig};
use super::actor_grains::cart_grain;
use super::actor_msg::{Msg, Reply};
use crate::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
    PlatformKind,
};
use crate::domain::flow::{self, to_basis_points};

/// The eventually consistent actor platform.
pub struct EventualPlatform {
    core: ActorCore,
}

impl EventualPlatform {
    pub fn new(config: ActorPlatformConfig) -> Self {
        Self {
            core: ActorCore::new(&config),
        }
    }

    /// Access to the underlying core (tests / diagnostics).
    pub fn core(&self) -> &ActorCore {
        &self.core
    }
}

impl MarketplacePlatform for EventualPlatform {
    fn kind(&self) -> PlatformKind {
        PlatformKind::Eventual
    }

    fn backend(&self) -> Option<om_common::config::BackendKind> {
        Some(self.core.backend)
    }

    fn is_wedged(&self) -> bool {
        self.core.cluster.storage().backend().is_wedged()
    }

    fn unwedge(&self) -> Option<OmResult<crate::api::UnwedgeOutcome>> {
        crate::api::unwedge_store(self.core.cluster.storage().backend().as_ref())
    }

    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        self.core.ingest_seller(seller)
    }

    fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        self.core.ingest_customer(customer)
    }

    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        self.core.ingest_product(product, initial_stock)
    }

    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        self.core.add_to_cart(customer, item)
    }

    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        let checkout = flow::Msg::Checkout {
            tid: self.core.next_tid(),
            method: request.method,
            decline_rate_bp: to_basis_points(self.core.decline_rate),
            at: self.core.cluster.clock().tick(),
        };
        match self
            .core
            .cluster
            .call(cart_grain(request.customer), Msg::Flow(checkout))?
        {
            Reply::Count(_) => {
                self.core.counters.incr("checkouts_accepted");
                // The eventual binding acknowledges acceptance; the order
                // id materializes asynchronously downstream.
                Ok(CheckoutOutcome::Placed {
                    order: None,
                    total: None,
                })
            }
            Reply::Err(e) if e.label() == "rejected" => {
                self.core.counters.incr("checkouts_rejected");
                Ok(CheckoutOutcome::Rejected(e.to_string()))
            }
            Reply::Err(e) => Err(e),
            other => unexpected(other),
        }
    }

    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        self.core.price_update(seller, product, price)
    }

    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        self.core.product_delete(seller, product)
    }

    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        self.core.update_delivery_eventual(max_sellers)
    }

    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        self.core.seller_dashboard(seller)
    }

    fn quiesce(&self) {
        self.core.quiesce();
    }

    fn snapshot(&self) -> OmResult<MarketSnapshot> {
        self.core.snapshot()
    }

    fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        self.core.counters()
    }
}
