//! Shared plumbing for the actor-based platforms: the grain cluster built
//! from a [`PlatformSpec`] (its backend, parallelism, faults and decline
//! rate), catalog bookkeeping, ingestion, replica-priced cart adds, the
//! delivery scan, the two-call dashboard and snapshot collection. The
//! delivery scan and the snapshot each read their grains in one
//! [`om_actor::Cluster::call_all`] fan-out; the cart add and the
//! dashboard stay sequential, because their call order is what the
//! stale-price and torn-dashboard criteria observe.

use om_actor::Cluster;
use om_common::entity::{Customer, Product, Seller, SellerDashboard};
use om_common::ids::*;
use om_common::stats::CounterSet;
use om_common::{Money, OmError, OmResult};
use parking_lot::RwLock;
use std::time::Duration;

use super::actor_grains::*;
use super::actor_msg::{Msg, Reply};
use crate::api::{CheckoutItem, MarketSnapshot};
use crate::domain::{flow, ProductReplica};
use crate::PlatformSpec;

/// Ingested entity ids (needed for fan-out queries and snapshots).
#[derive(Debug, Default)]
pub struct Catalog {
    pub sellers: RwLock<Vec<SellerId>>,
    pub customers: RwLock<Vec<CustomerId>>,
    pub products: RwLock<Vec<ProductId>>,
}

impl Catalog {
    /// Records a seller id unless already present — ingestion after a
    /// recovery-rebuilt catalog must not double-count entities.
    pub fn add_seller(&self, id: SellerId) {
        let mut list = self.sellers.write();
        if !list.contains(&id) {
            list.push(id);
        }
    }

    /// Records a customer id unless already present.
    pub fn add_customer(&self, id: CustomerId) {
        let mut list = self.customers.write();
        if !list.contains(&id) {
            list.push(id);
        }
    }

    /// Records a product id unless already present.
    pub fn add_product(&self, id: ProductId) {
        let mut list = self.products.write();
        if !list.contains(&id) {
            list.push(id);
        }
    }

    /// Rebuilds the catalog from the grain snapshots a storage backend
    /// already holds — the cold-start path. Entity grains persist their
    /// state under `<kind>/<id be64>` keys, so one ordered prefix scan
    /// per catalog kind recovers every id ingested before a restart; a
    /// memory-backed (fresh) backend simply yields empty scans.
    pub fn recover_from(backend: &dyn om_storage::StateBackend) -> Self {
        let catalog = Catalog::default();
        for id in scan_grain_ids(backend, super::kinds::SELLER) {
            catalog.add_seller(SellerId(id));
        }
        for id in scan_grain_ids(backend, super::kinds::CUSTOMER) {
            catalog.add_customer(CustomerId(id));
        }
        for id in scan_grain_ids(backend, super::kinds::PRODUCT) {
            catalog.add_product(ProductId(id));
        }
        catalog
    }
}

/// Decodes the grain ids persisted under `<kind>/<id be64>` storage keys
/// (the `om_actor::storage` key scheme).
fn scan_grain_ids(backend: &dyn om_storage::StateBackend, kind: &str) -> Vec<u64> {
    let mut prefix = Vec::with_capacity(kind.len() + 1);
    prefix.extend_from_slice(kind.as_bytes());
    prefix.push(b'/');
    backend
        .scan_prefix(&prefix)
        .into_iter()
        .filter_map(|(key, _)| {
            key.get(prefix.len()..)
                .and_then(|raw| <[u8; 8]>::try_from(raw).ok())
                .map(u64::from_be_bytes)
        })
        .collect()
}

/// The grain cluster plus the bookkeeping both actor bindings share.
pub struct ActorCore {
    pub cluster: Cluster<Msg, Reply>,
    pub catalog: Catalog,
    pub tids: IdSequence,
    pub decline_rate: f64,
    pub counters: CounterSet,
}

impl ActorCore {
    pub fn new(spec: &PlatformSpec) -> Self {
        // One backend decision for both uses: the catalog rebuild scans
        // the same instance the cluster persists through, so a platform
        // built over a durable (or shared) backend lists every entity a
        // previous instance ingested without any in-memory handoff.
        let backend = spec.storage_backend();
        let catalog = Catalog::recover_from(backend.as_ref());
        Self {
            cluster: build_cluster(spec.parallelism, spec.faults, backend),
            catalog,
            tids: IdSequence::new(1),
            decline_rate: spec.decline_rate,
            counters: CounterSet::new(),
        }
    }

    pub fn next_tid(&self) -> TransactionId {
        TransactionId(self.tids.next_raw())
    }

    // ---- ingestion ------------------------------------------------------

    pub fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        let id = seller.id;
        self.cluster
            .call(seller_grain(id), Msg::Flow(flow::Msg::IngestSeller(seller)))?
            .ok()?;
        self.catalog.add_seller(id);
        Ok(())
    }

    pub fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        let id = customer.id;
        self.cluster
            .call(customer_grain(id), Msg::Flow(flow::Msg::IngestCustomer(customer)))?
            .ok()?;
        self.catalog.add_customer(id);
        Ok(())
    }

    pub fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        let id = product.id;
        let key = StockKey::new(product.seller, id);
        let replica = ProductReplica::from(&product);
        self.cluster
            .call(product_grain(id), Msg::ProductIngest(product))?
            .ok()?;
        self.cluster
            .call(replica_grain(id), Msg::Flow(flow::Msg::ReplicaIngest(replica)))?
            .ok()?;
        let stock = flow::Msg::IngestStock {
            key,
            qty: initial_stock,
        };
        self.cluster.call(stock_grain(id), Msg::Flow(stock))?.ok()?;
        self.catalog.add_product(id);
        Ok(())
    }

    // ---- cart add (replica-priced) ---------------------------------------

    /// Adds to a cart at the price the cart-side replica currently offers,
    /// counting stale reads (replica behind the authoritative product).
    pub fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        let replica = match self.cluster.call(replica_grain(item.product), Msg::ReplicaGet)? {
            Reply::Replica(Some(r)) => r,
            Reply::Replica(None) => {
                return Err(OmError::NotFound(format!("replica of {}", item.product)))
            }
            other => return unexpected(other),
        };
        if !replica.active {
            return Err(OmError::Rejected(format!("{} deleted", item.product)));
        }
        // Staleness audit: compare against the authoritative product.
        if let Reply::Product(Some(p)) =
            self.cluster.call(product_grain(item.product), Msg::ProductGet)?
        {
            if replica.version < p.version {
                self.counters.incr("stale_price_reads");
            }
            if !p.active {
                self.counters.incr("deleted_product_cart_adds");
            }
        }
        self.counters.incr("cart_adds");
        self.cluster
            .call(
                cart_grain(customer),
                Msg::Flow(flow::Msg::CartAdd(replica.cart_line(&item))),
            )?
            .ok()
    }

    // ---- price update / product delete -----------------------------------

    pub fn price_update(
        &self,
        _seller: SellerId,
        product: ProductId,
        price: Money,
    ) -> OmResult<()> {
        match self
            .cluster
            .call(product_grain(product), Msg::Flow(flow::Msg::PriceUpdate { price }))?
        {
            Reply::Count(_) => {
                self.counters.incr("price_updates");
                Ok(())
            }
            Reply::Err(e) => Err(e),
            other => unexpected(other),
        }
    }

    pub fn product_delete(&self, _seller: SellerId, product: ProductId) -> OmResult<()> {
        match self
            .cluster
            .call(product_grain(product), Msg::Flow(flow::Msg::ProductDelete))?
        {
            Reply::Count(_) => {
                self.counters.incr("product_deletes");
                Ok(())
            }
            Reply::Err(e) => Err(e),
            other => unexpected(other),
        }
    }

    // ---- update delivery ------------------------------------------------

    /// The sellers with an undelivered package, oldest package first, at
    /// most `max_sellers` of them: one fan-out over every seller's
    /// shipment grain (paper §II *Update Delivery*).
    pub fn sellers_by_oldest_undelivered(&self, max_sellers: usize) -> OmResult<Vec<SellerId>> {
        let sellers: Vec<SellerId> = self.catalog.sellers.read().clone();
        let calls = sellers
            .iter()
            .map(|&s| (shipment_grain(s), Msg::ShipOldest))
            .collect();
        let mut ranked: Vec<(om_common::time::EventTime, SellerId)> = Vec::new();
        for (s, reply) in sellers.into_iter().zip(self.cluster.call_all(calls)) {
            if let Reply::OldestUndelivered(Some(t)) = reply? {
                ranked.push((t, s));
            }
        }
        ranked.sort();
        Ok(ranked.into_iter().take(max_sellers).map(|(_, s)| s).collect())
    }

    /// Delivers the oldest order of each of the first `max_sellers`
    /// sellers by oldest undelivered package, as events (the eventual
    /// path).
    pub fn update_delivery_eventual(&self, max_sellers: usize) -> OmResult<u32> {
        let deliver = flow::Msg::DeliverOldest {
            tid: self.next_tid(),
            at: self.cluster.clock().tick(),
        };
        let calls = self
            .sellers_by_oldest_undelivered(max_sellers)?
            .into_iter()
            .map(|s| (shipment_grain(s), Msg::Flow(deliver.clone())))
            .collect();
        let mut packages = 0;
        for reply in self.cluster.call_all(calls) {
            if let Reply::Count(n) = reply? {
                packages += n as u32;
            }
        }
        self.counters.incr("update_deliveries");
        Ok(packages)
    }

    // ---- seller dashboard (two non-atomic queries) -------------------------

    /// The dashboard's two queries issued back-to-back against the seller
    /// grain. Because events keep arriving between the calls, the halves
    /// can reflect different states — the torn-dashboard anomaly the
    /// auditor counts on platforms without consistent querying.
    pub fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        let (amount, count) = match self
            .cluster
            .call(seller_grain(seller), Msg::SellerGetAggregate)?
        {
            Reply::Aggregate { amount, count } => (amount, count),
            Reply::Err(e) => return Err(e),
            other => return unexpected(other),
        };
        let entries = match self.cluster.call(seller_grain(seller), Msg::SellerGetEntries)? {
            Reply::Entries(entries) => entries,
            Reply::Err(e) => return Err(e),
            other => return unexpected(other),
        };
        self.counters.incr("dashboards");
        Ok(SellerDashboard {
            seller,
            in_progress_amount: amount,
            in_progress_count: count,
            entries,
        })
    }

    // ---- lifecycle --------------------------------------------------------

    pub fn quiesce(&self) {
        self.cluster.drain(Duration::from_secs(10));
    }

    /// Collects the full platform state in one fan-out over the catalog.
    /// It runs after [`Self::quiesce`], so the order the grains answer in
    /// does not matter; each list keeps catalog order.
    pub fn snapshot(&self) -> OmResult<MarketSnapshot> {
        let mut calls = Vec::new();
        for &p in self.catalog.products.read().iter() {
            calls.push((product_grain(p), Msg::ProductGet));
            calls.push((stock_grain(p), Msg::StockGet));
        }
        for &c in self.catalog.customers.read().iter() {
            calls.push((order_grain(c), Msg::OrderGetAll));
            calls.push((payment_grain(c), Msg::PaymentGetAll));
            calls.push((customer_grain(c), Msg::CustomerGet));
            calls.push((order_grain(c), Msg::OrderStuckAssemblies));
        }
        for &s in self.catalog.sellers.read().iter() {
            calls.push((seller_grain(s), Msg::SellerGetProfile));
            calls.push((shipment_grain(s), Msg::ShipGetPackages));
        }
        let mut snap = MarketSnapshot::default();
        for reply in self.cluster.call_all(calls) {
            match reply? {
                Reply::Product(Some(prod)) => snap.products.push(prod),
                Reply::Stock(Some(stock)) => snap.stock.push(stock),
                Reply::Orders(orders) => snap.orders.extend(orders),
                Reply::Payments(ps) => snap.payments.extend(ps),
                Reply::CustomerProfile(Some(profile)) => snap.customers.push(profile),
                Reply::Count(stuck) => snap.stuck_assemblies += stuck,
                Reply::SellerProfile(Some(profile)) => snap.sellers.push(profile),
                Reply::Packages(pkgs) => snap.shipments.extend(pkgs),
                _ => {}
            }
        }
        Ok(snap)
    }

    /// Platform + cluster + storage-backend counters merged.
    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        let mut out = self.counters.snapshot();
        for (k, v) in self.cluster.counters().snapshot() {
            out.insert(format!("cluster.{k}"), v);
        }
        let storage = self.cluster.storage();
        out.insert("storage.saves".into(), storage.save_count());
        for (k, v) in storage.backend().counters() {
            out.insert(format!("storage.{k}"), v);
        }
        out
    }
}

/// Maps a protocol-violation reply into an internal error.
pub fn unexpected<T>(reply: Reply) -> OmResult<T> {
    Err(OmError::Internal(format!("unexpected reply {reply:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlatformKind;
    use om_common::config::BackendKind;
    use om_common::entity::{OrderEntry, OrderStatus};

    #[test]
    fn catalog_recovery_skips_seller_entry_rows() {
        let backend = om_storage::make_backend(BackendKind::SnapshotIsolation, 8);
        let core = ActorCore::new(
            &PlatformSpec::new(PlatformKind::Transactional, BackendKind::SnapshotIsolation)
                .backend_instance(backend.clone()),
        );
        for s in [3, 1, 7] {
            core.ingest_seller(Seller::new(SellerId(s), format!("s{s}"), "c".into()))
                .unwrap();
            for order in 1..=4 {
                core.cluster.notify(
                    seller_grain(SellerId(s)),
                    Msg::Flow(flow::Msg::AddEntry(OrderEntry {
                        order: OrderId(order),
                        seller: SellerId(s),
                        product: ProductId(s * 10 + order),
                        quantity: 1,
                        total_amount: Money::from_cents(100),
                        status: OrderStatus::Invoiced,
                    })),
                );
            }
        }
        core.ingest_customer(Customer::new(CustomerId(9), "c".into(), "a".into()))
            .unwrap();
        core.quiesce();
        let seller_keys = backend.scan_prefix(b"seller/").len();
        assert_eq!(seller_keys, 3 + 3 * 4, "a header and four entry rows per seller");
        assert_eq!(
            scan_grain_ids(backend.as_ref(), super::super::kinds::SELLER),
            vec![1, 3, 7],
            "one id per grain, not one per row"
        );

        let catalog = Catalog::recover_from(backend.as_ref());
        assert_eq!(
            *catalog.sellers.read(),
            vec![SellerId(1), SellerId(3), SellerId(7)],
            "exactly the ingested sellers, once each"
        );
        assert_eq!(*catalog.customers.read(), vec![CustomerId(9)]);
        assert!(catalog.products.read().is_empty());
    }
}
