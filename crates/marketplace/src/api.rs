//! The uniform platform surface the benchmark driver submits the five
//! business transactions through.

use om_common::config::BackendKind;
use om_common::entity::{
    Customer, Order, Package, PackageStatus, Payment, PaymentMethod, Product, Seller,
    SellerDashboard, StockItem,
};
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId};
use om_common::{Money, OmError, OmResult};
use om_storage::StateBackend;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which of the four paper implementations a platform instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// Orleans Eventual — eventually consistent actor messaging.
    Eventual,
    /// Orleans Transactions — ACID across grains (2PL + 2PC).
    Transactional,
    /// Apache Flink Statefun — exactly-once dataflow.
    Dataflow,
    /// Customized Orleans — transactions + MVCC querying + a product
    /// replica read through monotonic backend sessions + an audit count.
    Customized,
}

impl PlatformKind {
    pub fn label(self) -> &'static str {
        match self {
            PlatformKind::Eventual => "orleans_eventual",
            PlatformKind::Transactional => "orleans_transactions",
            PlatformKind::Dataflow => "statefun",
            PlatformKind::Customized => "customized_orleans",
        }
    }
}

/// One item of a checkout request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckoutItem {
    pub seller: SellerId,
    pub product: ProductId,
    pub quantity: u32,
}

/// A Customer Checkout request (paper §II).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckoutRequest {
    pub customer: CustomerId,
    pub items: Vec<CheckoutItem>,
    pub method: PaymentMethod,
}

/// Result of a checkout as observed by the submitting client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckoutOutcome {
    /// The order was placed (eventual bindings return this as soon as the
    /// request is accepted; transactional bindings after full commit).
    Placed {
        order: Option<OrderId>,
        total: Option<Money>,
    },
    /// The platform rejected the checkout (empty cart, all items out of
    /// stock, payment declined, ...).
    Rejected(String),
}

/// A consistent-as-possible dump of platform state for the post-run
/// auditor. Collected after `quiesce()`, so platforms that completed all
/// asynchronous work will present their true final state; missing effects
/// (lost events) show up as discrepancies the auditor counts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MarketSnapshot {
    pub products: Vec<Product>,
    pub stock: Vec<StockSnapshot>,
    pub orders: Vec<Order>,
    pub payments: Vec<Payment>,
    pub shipments: Vec<PackageSnapshot>,
    pub sellers: Vec<Seller>,
    pub customers: Vec<Customer>,
    /// Checkout assemblies stuck waiting for lost events (eventual mode).
    pub stuck_assemblies: u64,
}

/// Stock line within a snapshot, with sale accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StockSnapshot {
    pub item: StockItem,
    pub qty_sold: u64,
}

/// Package line within a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackageSnapshot {
    pub order: OrderId,
    pub seller: SellerId,
    pub product: ProductId,
    pub delivered: bool,
    /// Lamport time the package shipped — the auditor compares it with the
    /// payment time to check the payment-before-shipment ordering
    /// criterion.
    pub shipped_at: u64,
}

impl From<&Package> for PackageSnapshot {
    fn from(p: &Package) -> Self {
        Self {
            order: p.order,
            seller: p.seller,
            product: p.product,
            delivered: p.status == PackageStatus::Delivered,
            shipped_at: p.shipped_at.raw(),
        }
    }
}

/// Outcome of a crash-recovery drill
/// ([`MarketplacePlatform::crash_and_recover`]): how fast the platform
/// restarted from its last durable checkpoint and how much work it had
/// to replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOutcome {
    /// Label of the backend recovery read the checkpoint from
    /// (`"eventual_kv"`, `"snapshot_isolation"`, `"file_durable"`).
    pub store: String,
    /// Epoch the platform restarted from.
    pub recovered_epoch: u64,
    /// Epoch after the post-crash replay finished (never below
    /// `recovered_epoch`: recovery loses no committed epoch).
    pub final_epoch: u64,
    /// Wall-clock microseconds the state restore took.
    pub recovery_us: u64,
    /// Ingress records replayed after the restore.
    pub replayed_ingress: u64,
}

/// Outcome of an in-place wedged-store repair
/// ([`MarketplacePlatform::unwedge`]): what the repair dropped and where
/// the store stands now.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnwedgeOutcome {
    /// Whether the store was actually wedged when the repair ran (a
    /// repair on a healthy store is a no-op and reports `false`).
    pub was_wedged: bool,
    /// Torn (unacknowledged) tail bytes truncated by the repair. Always
    /// bytes that were never acknowledged to any client.
    pub torn_bytes_dropped: u64,
    /// Whether the store accepts commits again after the repair.
    pub healthy: bool,
}

/// The uniform platform interface (one impl per paper binding).
///
/// All five workload transactions plus ingestion, quiescing and state
/// export. Implementations must be thread-safe: the driver submits from
/// many worker threads concurrently.
pub trait MarketplacePlatform: Send + Sync {
    fn kind(&self) -> PlatformKind;

    /// The [`StateBackend`] instance the platform persists state through
    /// (the dataflow binding's is its checkpoint store's), or `None` for
    /// a platform whose state lives only inside its runtime — the
    /// default. [`backend`](Self::backend),
    /// [`is_wedged`](Self::is_wedged) and [`unwedge`](Self::unwedge)
    /// read it.
    fn store(&self) -> Option<&Arc<dyn StateBackend>> {
        None
    }

    /// Which pluggable [`StateBackend`] the platform persists state
    /// through. Reports label runs with this.
    fn backend(&self) -> Option<BackendKind> {
        self.store().map(|store| store.kind())
    }

    // ---- data ingestion -------------------------------------------------
    fn ingest_seller(&self, seller: Seller) -> OmResult<()>;
    fn ingest_customer(&self, customer: Customer) -> OmResult<()>;
    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()>;

    // ---- the five business transactions --------------------------------
    /// Customer Checkout: cart assembly happens platform-side from the
    /// request items (the driver performs the preceding add-to-cart calls
    /// through [`MarketplacePlatform::add_to_cart`]).
    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome>;

    /// Adds one item to a customer's cart (priced from the platform's
    /// replica view).
    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()>;

    /// Price Update: seller updates a product's price; the platform
    /// replicates it to the cart side.
    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()>;

    /// Product Delete: seller removes a product; Stock and Cart converge.
    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()>;

    /// Update Delivery: delivers the oldest order's packages of the first
    /// `max_sellers` sellers with undelivered packages (paper uses 10).
    /// Returns the number of packages delivered.
    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32>;

    /// Seller Dashboard: the continuous aggregate plus the tuples behind
    /// it. Whether the two halves reflect one snapshot is exactly the
    /// benchmark's consistent-querying criterion.
    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard>;

    /// The Seller Dashboard as the JSON body the gateway sends: the bytes
    /// of `serde_json::to_vec(&self.seller_dashboard(seller)?)`, which is
    /// the default. A binding may build the same bytes a cheaper way.
    fn seller_dashboard_json(&self, seller: SellerId) -> OmResult<Vec<u8>> {
        let dashboard = self.seller_dashboard(seller)?;
        serde_json::to_vec(&dashboard)
            .map_err(|e| OmError::Internal(format!("encode the dashboard of {seller}: {e}")))
    }

    // ---- lifecycle ------------------------------------------------------
    /// Blocks until asynchronous work has drained (best effort).
    fn quiesce(&self);

    /// Exports the platform state for auditing. Call after `quiesce`.
    fn snapshot(&self) -> OmResult<MarketSnapshot>;

    /// Platform-observed anomaly/diagnostic counters (staleness, drops,
    /// replays, tx aborts, ...). Keys are platform-specific.
    fn counters(&self) -> std::collections::BTreeMap<String, u64>;

    /// Crashes the platform mid-epoch and restores it from its last
    /// durable checkpoint, measuring the restore (the benchmark's
    /// recovery cell). Returns `None` on platforms without an injectable
    /// crash-recovery path — the default.
    ///
    /// The drill must be *safe*: after it returns, platform state equals
    /// what it was before (no committed work lost, no drill side
    /// effects).
    fn crash_and_recover(&self) -> Option<RecoveryOutcome> {
        None
    }

    /// Whether the platform's durable store is **wedged** — a storage
    /// fault left it rejecting every commit with
    /// [`OmError::Wedged`] until repaired.
    /// Always `false` on memory-only platforms.
    fn is_wedged(&self) -> bool {
        self.store().is_some_and(|store| store.is_wedged())
    }

    /// Repairs a wedged durable store in place: close, truncate the torn
    /// (never-acknowledged) tail, re-open, verify. Returns `None` when
    /// the store has no wedge concept, and `Some(Err(_))` when the
    /// repair failed and the store stays wedged.
    ///
    /// The repair must be safe under live traffic: concurrent commits
    /// observe either the wedged error or the healthy store, never a
    /// half-repaired file.
    fn unwedge(&self) -> Option<OmResult<UnwedgeOutcome>> {
        let store = self.store()?;
        let was_wedged = store.is_wedged();
        let repair = store.unwedge()?;
        Some(repair.map(|torn| UnwedgeOutcome {
            was_wedged,
            torn_bytes_dropped: torn,
            healthy: !store.is_wedged(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_labels_are_unique() {
        let labels: std::collections::HashSet<_> = [
            PlatformKind::Eventual,
            PlatformKind::Transactional,
            PlatformKind::Dataflow,
            PlatformKind::Customized,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn checkout_outcome_serde() {
        let o = CheckoutOutcome::Placed {
            order: Some(OrderId(1)),
            total: Some(Money::from_cents(100)),
        };
        let s = serde_json::to_string(&o).unwrap();
        let back: CheckoutOutcome = serde_json::from_str(&s).unwrap();
        assert_eq!(back, o);
    }
}
