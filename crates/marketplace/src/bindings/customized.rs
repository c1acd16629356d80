//! The **Customized Orleans** binding (paper §III, Fig. 1): the
//! full-featured stack that meets *all* prescribed data-management
//! criteria.
//!
//! It composes:
//!
//! * the [`TransactionalPlatform`] actor core — all-or-nothing checkout
//!   via 2PL + 2PC ("solution based on Orleans Transactions");
//! * a **product replica cache** read through the unified
//!   [`StateBackend`]'s read-your-writes sessions (the paper's Redis
//!   primary/secondary deployment);
//! * a **seller dashboard projection** — a running aggregate row plus the
//!   seller's entries in a fixed number of page rows, maintained with one
//!   multi-key backend commit per business transaction and read back with
//!   one prefix scan (the paper's PostgreSQL offload);
//! * `om-log` as the audit log of committed business transactions
//!   (Fig. 1's "log storage").
//!
//! Since PR 3 the projection and the replica cache live in the **same
//! pluggable [`StateBackend`] instance as the grain snapshots**, so
//! `BackendKind` selection is meaningful end-to-end for this platform:
//! under `snapshot_isolation` the dashboard's multi-key commits are
//! atomic and a prefix scan reads one snapshot (torn dashboards are
//! impossible by construction); under `eventual_kv` the same commits
//! apply per key and a concurrent dashboard can observe a torn subset —
//! exactly the trade the benchmark's platform×backend matrix measures.
//!
//! Per the paper, the extra machinery "introduces low overhead, hence its
//! performance is comparable to Orleans Transactions" — experiment E7
//! verifies that ratio.

use om_common::entity::{Customer, OrderEntry, OrderStatus, Product, Seller, SellerDashboard};
use om_common::ids::*;
use om_common::{Money, OmError, OmResult};
use om_storage::{StateBackend, WriteBatch};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use super::actor_core::{unexpected, ActorPlatformConfig};
use super::actor_grains::{cart_grain, order_grain};
use super::actor_msg::{Msg, Reply};
use super::transactional::TransactionalPlatform;
use crate::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
    PlatformKind,
};
use crate::domain::{flow, ProductReplica};

/// Retries before a conflicting projection commit is surfaced (only the
/// snapshot-isolation backend can lose first-committer-wins validation).
const PROJECTION_RETRIES: usize = 32;

/// Key of the replica-cache record for `product` (namespaced so it can
/// never collide with grain-snapshot keys, which are `kind/`-prefixed).
fn replica_key(product: ProductId) -> Vec<u8> {
    let mut key = Vec::with_capacity(6 + 8);
    key.extend_from_slice(b"crep!/");
    key.extend_from_slice(&product.0.to_be_bytes());
    key
}

/// Prefix under which one seller's whole dashboard lives. The aggregate
/// row (`…/a`) sorts before the entry pages (`…/e/…`), so a single prefix
/// scan returns the aggregate followed by its entries — under snapshot
/// isolation that scan is one consistent snapshot of both halves.
fn dashboard_prefix(seller: SellerId) -> Vec<u8> {
    let mut key = Vec::with_capacity(7 + 8 + 4);
    key.extend_from_slice(b"cdash!/");
    key.extend_from_slice(&seller.0.to_be_bytes());
    key.push(b'/');
    key
}

/// Key of the seller's aggregate row: (amount cents, entry count).
fn agg_key(seller: SellerId) -> Vec<u8> {
    let mut key = dashboard_prefix(seller);
    key.push(b'a');
    key
}

/// Entry pages per seller. A seller's in-progress entries are kept as at
/// most this many rows, each the encoded `Vec<OrderEntry>` of the orders
/// that hash to it: a dashboard reads `ENTRY_PAGES + 1` rows however many
/// entries it returns, and a checkout or delivery rewrites one page (a
/// sixteenth of the seller's entries) per seller it touches.
const ENTRY_PAGES: u64 = 16;

/// Key of the page holding every entry of `(seller, order)`. Order ids
/// are `customer × k + seq`, so the page is drawn from a multiplicative
/// hash of the id, not from its low bits.
fn page_key(seller: SellerId, order: OrderId) -> Vec<u8> {
    let page = order.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let mut key = dashboard_prefix(seller);
    key.extend_from_slice(b"e/");
    key.push((page % ENTRY_PAGES) as u8);
    key
}

fn decode_page(raw: &[u8]) -> OmResult<Vec<OrderEntry>> {
    om_common::codec::from_bytes(raw)
        .map_err(|e| OmError::Internal(format!("dashboard entry page does not decode: {e:?}")))
}

fn encode_page(entries: &[OrderEntry]) -> OmResult<Vec<u8>> {
    om_common::codec::to_bytes(&entries)
        .map_err(|e| OmError::Internal(format!("encode entry page: {e}")))
}

fn encode_agg(amount_cents: i64, count: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&amount_cents.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out
}

fn decode_agg(raw: &[u8]) -> OmResult<(i64, u64)> {
    if raw.len() != 16 {
        return Err(OmError::Internal(format!(
            "dashboard aggregate row does not decode: {} bytes, not 16",
            raw.len()
        )));
    }
    Ok((
        i64::from_le_bytes(raw[0..8].try_into().unwrap()),
        u64::from_le_bytes(raw[8..16].try_into().unwrap()),
    ))
}

/// Configuration for the customized platform.
#[derive(Debug, Clone, Default)]
pub struct CustomizedConfig {
    pub actor: ActorPlatformConfig,
}

/// The full-featured stack.
pub struct CustomizedPlatform {
    inner: TransactionalPlatform,
    /// The same pluggable backend instance the grain snapshots use; the
    /// dashboard projection and replica cache live in their own key
    /// namespaces inside it.
    backend: Arc<dyn StateBackend>,
    /// Serializes the projection's read-modify-write sections (there is
    /// one projection writer per platform instance). The *visibility* of
    /// each multi-key commit is still the backend's discipline — atomic
    /// under snapshot isolation, per-key under eventual.
    projection_write: Mutex<()>,
    /// Newest replica version each customer has observed per product —
    /// the session context that makes customer reads **monotonic**: a
    /// lagging backend session read below this floor falls back to the
    /// authoritative copy (counted, because the fallback is the cost the
    /// weaker replication discipline charges).
    replica_floors: Mutex<HashMap<(CustomerId, u64), u64>>,
    /// Audit log of committed business transactions (log storage role).
    audit: Arc<om_log::Topic<String>>,
    audit_producer: om_log::ProducerHandle<String>,
}

impl CustomizedPlatform {
    pub fn new(config: CustomizedConfig) -> Self {
        let inner = TransactionalPlatform::new(config.actor);
        let backend = inner.core().cluster.storage().backend().clone();
        let audit: Arc<om_log::Topic<String>> = Arc::new(om_log::Topic::new("audit", 1));
        let audit_producer = audit.producer();
        Self {
            inner,
            backend,
            projection_write: Mutex::new(()),
            replica_floors: Mutex::new(HashMap::new()),
            audit,
            audit_producer,
        }
    }

    pub fn inner(&self) -> &TransactionalPlatform {
        &self.inner
    }

    /// The unified backend holding grain snapshots, the dashboard
    /// projection and the replica cache (tests / criteria auditing).
    pub fn state_backend(&self) -> &Arc<dyn StateBackend> {
        &self.backend
    }

    fn audit_append(&self, line: String) {
        let _ = self.audit_producer.send(0, line);
    }

    /// Runs one projection read-modify-write: `build` assembles the batch
    /// from current backend state, and the commit is retried while the
    /// backend reports retryable (first-committer-wins) conflicts.
    fn project(&self, build: impl Fn() -> OmResult<WriteBatch>) -> OmResult<()> {
        let _writer = self.projection_write.lock();
        let mut last = None;
        for _ in 0..PROJECTION_RETRIES {
            let batch = build()?;
            if batch.is_empty() {
                return Ok(());
            }
            match self.backend.commit(batch) {
                Ok(_) => return Ok(()),
                Err(e) if e.is_retryable() => {
                    self.inner.core().counters.incr("projection_commit_conflicts");
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| OmError::Internal("projection commit failed".into())))
    }

    /// The seller's aggregate row as it stands, zero if never written.
    fn read_agg(&self, seller: SellerId) -> OmResult<(i64, u64)> {
        self.backend
            .get(&agg_key(seller))
            .map_or(Ok((0, 0)), |raw| decode_agg(&raw))
    }

    /// The entry page `key` as it stands, empty if never written.
    fn read_page(&self, key: &[u8]) -> OmResult<Vec<OrderEntry>> {
        self.backend
            .get(key)
            .map_or(Ok(Vec::new()), |raw| decode_page(&raw))
    }

    /// Registers the order's dashboard entries and bumps the per-seller
    /// aggregates in one multi-key backend commit: per seller, the page
    /// the order hashes to and the aggregate row.
    fn project_add_order(
        &self,
        order: &om_common::entity::Order,
        status: OrderStatus,
    ) -> OmResult<()> {
        self.project(|| {
            let mut by_seller: std::collections::BTreeMap<u64, Vec<OrderEntry>> =
                Default::default();
            for entry in order.entries(status) {
                by_seller.entry(entry.seller.0).or_default().push(entry);
            }
            let mut batch = WriteBatch::new();
            for (seller, added) in by_seller {
                let seller = SellerId(seller);
                let amount: i64 = added.iter().map(|e| e.total_amount.cents()).sum();
                let count = added.len() as u64;
                let key = page_key(seller, order.id);
                let mut page = self.read_page(&key)?;
                page.extend(added);
                let (cur_amount, cur_count) = self.read_agg(seller)?;
                batch = batch.put(key, encode_page(&page)?).put(
                    agg_key(seller),
                    encode_agg(cur_amount + amount, cur_count + count),
                );
            }
            Ok(batch)
        })
    }

    /// Retires an order's entries for one seller (delivery/terminal).
    fn project_retire_order(&self, seller: SellerId, order: OrderId) -> OmResult<()> {
        self.project(|| {
            let key = page_key(seller, order);
            let page = self.read_page(&key)?;
            let (retired, kept): (Vec<OrderEntry>, Vec<OrderEntry>) =
                page.into_iter().partition(|e| e.order == order);
            if retired.is_empty() {
                return Ok(WriteBatch::new());
            }
            let amount: i64 = retired.iter().map(|e| e.total_amount.cents()).sum();
            let (cur_amount, cur_count) = self.read_agg(seller)?;
            let batch = if kept.is_empty() {
                WriteBatch::new().delete(key)
            } else {
                WriteBatch::new().put(key, encode_page(&kept)?)
            };
            Ok(batch.put(
                agg_key(seller),
                encode_agg(
                    cur_amount - amount,
                    cur_count.saturating_sub(retired.len() as u64),
                ),
            ))
        })
    }

    fn read_replica(&self, product: ProductId) -> Option<ProductReplica> {
        self.backend
            .get(&replica_key(product))
            .and_then(|raw| om_common::codec::from_bytes(&raw).ok())
    }

    fn write_replica(&self, product: ProductId, replica: &ProductReplica) -> OmResult<()> {
        let raw = om_common::codec::to_bytes(replica)
            .map_err(|e| OmError::Internal(format!("encode replica: {e}")))?;
        self.backend.try_put(&replica_key(product), &raw)
    }
}

impl MarketplacePlatform for CustomizedPlatform {
    fn kind(&self) -> PlatformKind {
        PlatformKind::Customized
    }

    fn backend(&self) -> Option<om_common::config::BackendKind> {
        Some(self.inner.core().backend)
    }

    fn is_wedged(&self) -> bool {
        self.backend.is_wedged()
    }

    fn unwedge(&self) -> Option<OmResult<crate::api::UnwedgeOutcome>> {
        crate::api::unwedge_store(self.backend.as_ref())
    }

    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        let id = seller.id;
        self.inner.ingest_seller(seller)?;
        // Seed the aggregate row so dashboards never miss.
        self.backend.try_put(&agg_key(id), &encode_agg(0, 0))
    }

    fn ingest_customer(&self, customer: Customer) -> OmResult<()> {
        self.inner.ingest_customer(customer)
    }

    fn ingest_product(&self, product: Product, initial_stock: u32) -> OmResult<()> {
        let replica = ProductReplica::from(&product);
        let id = product.id;
        self.inner.ingest_product(product, initial_stock)?;
        self.write_replica(id, &replica)
    }

    /// Cart adds price items from a backend session read (the
    /// secondary-replica read of the paper's Redis deployment), made
    /// **monotonic per customer**: a session read below the newest
    /// replica version this customer has already observed — or a session
    /// miss — falls back to the authoritative copy. Fallbacks are
    /// counted, because they are the cost the weaker replication
    /// discipline charges.
    fn add_to_cart(&self, customer: CustomerId, item: CheckoutItem) -> OmResult<()> {
        let core = self.inner.core();
        let key = replica_key(item.product);
        let floor = self
            .replica_floors
            .lock()
            .get(&(customer, item.product.0))
            .copied()
            .unwrap_or(0);
        let mut session = self.backend.session();
        let session_read: Option<ProductReplica> = session
            .get(&key)
            .and_then(|raw| om_common::codec::from_bytes(&raw).ok());
        drop(session);
        let replica: ProductReplica = match session_read {
            Some(replica) if replica.version >= floor => replica,
            lagging => {
                // Replication lag: the session's replica has not seen the
                // key yet, or serves a version older than this customer
                // has already observed; read the authoritative copy.
                let raw = self.backend.get(&key);
                if raw.is_some() {
                    core.counters.incr(if lagging.is_some() {
                        "replica_session_inversions_repaired"
                    } else {
                        "replica_session_fallbacks"
                    });
                }
                raw.and_then(|raw| om_common::codec::from_bytes(&raw).ok())
                    .ok_or_else(|| OmError::NotFound(format!("replica of {}", item.product)))?
            }
        };
        self.replica_floors
            .lock()
            .entry((customer, item.product.0))
            .and_modify(|v| *v = (*v).max(replica.version))
            .or_insert(replica.version);
        if !replica.active {
            return Err(OmError::Rejected(format!("{} deleted", item.product)));
        }
        core.counters.incr("cart_adds");
        core.cluster
            .call(
                cart_grain(customer),
                Msg::Flow(flow::Msg::CartAdd(replica.cart_line(&item))),
            )?
            .ok()
    }

    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        let customer = request.customer;
        let outcome = self.inner.checkout(request)?;
        if let CheckoutOutcome::Placed {
            order: Some(order_id),
            ..
        } = &outcome
        {
            // Offload the dashboard projection to the backend, and append
            // the audit record (Fig. 1 pipeline).
            let order = match self
                .inner
                .core()
                .cluster
                .call(order_grain(customer), Msg::OrderGet(*order_id))?
            {
                Reply::Orders(mut v) if !v.is_empty() => v.remove(0),
                Reply::Orders(_) => {
                    return Err(OmError::Internal(format!(
                        "committed order {order_id} not found"
                    )))
                }
                other => return unexpected(other),
            };
            self.project_add_order(&order, order.status)?;
            self.audit_append(format!("checkout customer={customer} order={order_id}"));
        }
        Ok(outcome)
    }

    /// Price updates go to the authoritative product grain **and** the
    /// replica cache the cart reads.
    fn price_update(&self, seller: SellerId, product: ProductId, price: Money) -> OmResult<()> {
        self.inner.price_update(seller, product, price)?;
        if let Some(mut replica) = self.read_replica(product) {
            let version = replica.version + 1;
            replica.apply_update(price, version);
            self.write_replica(product, &replica)?;
        }
        self.audit_append(format!("price_update product={product}"));
        Ok(())
    }

    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        self.inner.product_delete(seller, product)?;
        if let Some(mut replica) = self.read_replica(product) {
            let version = replica.version + 1;
            replica.apply_delete(version);
            self.write_replica(product, &replica)?;
        }
        self.audit_append(format!("product_delete product={product}"));
        Ok(())
    }

    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        // Snapshot the shipment state before delivery so we can retire the
        // right projection entries afterwards.
        let before = self.inner.update_delivery_with_detail(max_sellers)?;
        for (seller, order) in &before.delivered_orders {
            self.project_retire_order(*seller, *order)?;
        }
        self.audit_append(format!("update_delivery packages={}", before.packages));
        Ok(before.packages)
    }

    /// The consistent dashboard: **one prefix scan** returns the seller's
    /// aggregate row and entry pages together. Under the snapshot-isolation
    /// backend the scan reads a single MVCC snapshot — torn reads are
    /// impossible by construction (paper: "offloads consistent querying
    /// ... to PostgreSQL"). Under the eventual backend the same scan can
    /// race a per-key commit and observe a torn dashboard — the anomaly
    /// the criteria audit counts.
    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        let rows = self.backend.scan_prefix(&dashboard_prefix(seller));
        let agg = agg_key(seller);
        let mut amount = 0i64;
        let mut count = 0u64;
        let mut entries = Vec::new();
        for (key, raw) in rows {
            if key == agg {
                (amount, count) = decode_agg(&raw)?;
                entries.reserve(count as usize);
            } else {
                entries.extend(decode_page(&raw)?);
            }
        }
        // Pages are hash buckets; the answer lists entries by order, then
        // product.
        entries.sort_unstable_by_key(|e| (e.order, e.product));
        self.inner.core().counters.incr("dashboards");
        Ok(SellerDashboard {
            seller,
            in_progress_amount: Money::from_cents(amount),
            in_progress_count: count,
            entries,
        })
    }

    fn quiesce(&self) {
        self.inner.quiesce();
        self.backend.quiesce();
    }

    fn snapshot(&self) -> OmResult<MarketSnapshot> {
        self.inner.snapshot()
    }

    fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        let mut out = self.inner.counters();
        out.insert("audit.records".into(), self.audit.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_platform, PlatformSpec};
    use om_common::config::BackendKind;
    use om_common::entity::PaymentMethod;

    /// A damaged projection row fails the write that would overwrite it
    /// and the dashboard that would read it, instead of decoding as an
    /// empty page or a zero aggregate.
    #[test]
    fn damaged_dashboard_rows_fail_loudly_and_stay_untouched() {
        let backend = om_storage::make_backend(BackendKind::SnapshotIsolation, 8);
        let spec = PlatformSpec::new(PlatformKind::Customized, BackendKind::SnapshotIsolation)
            .decline_rate(0.0)
            .backend_instance(backend.clone());
        let platform = build_platform(&spec);
        for s in 1..=2 {
            platform
                .ingest_seller(Seller::new(
                    SellerId(s),
                    format!("seller-{s}"),
                    "city".into(),
                ))
                .unwrap();
            platform
                .ingest_customer(Customer::new(
                    CustomerId(s),
                    format!("c-{s}"),
                    "addr".into(),
                ))
                .unwrap();
            platform
                .ingest_product(
                    Product {
                        id: ProductId(s),
                        seller: SellerId(s),
                        name: format!("product-{s}"),
                        category: "test".into(),
                        description: String::new(),
                        price: Money::from_cents(100),
                        freight_value: Money::from_cents(10),
                        version: 0,
                        active: true,
                    },
                    100,
                )
                .unwrap();
        }
        platform.quiesce();

        // Seller 1's entry pages and seller 2's aggregate row are garbage.
        let garbage = b"\xff\xff\xff\xff\xff".to_vec();
        let damaged: Vec<Vec<u8>> = (0..ENTRY_PAGES as u8)
            .map(|page| {
                let mut key = dashboard_prefix(SellerId(1));
                key.extend_from_slice(b"e/");
                key.push(page);
                key
            })
            .chain([agg_key(SellerId(2))])
            .collect();
        for key in &damaged {
            backend.put(key, &garbage);
        }

        for s in 1..=2 {
            platform
                .add_to_cart(
                    CustomerId(s),
                    CheckoutItem {
                        seller: SellerId(s),
                        product: ProductId(s),
                        quantity: 1,
                    },
                )
                .unwrap();
            let checkout = platform.checkout(CheckoutRequest {
                customer: CustomerId(s),
                items: vec![],
                method: PaymentMethod::CreditCard,
            });
            assert!(
                matches!(checkout, Err(OmError::Internal(_))),
                "seller {s}: a checkout over a damaged row fails, got {checkout:?}"
            );
            assert!(
                platform.seller_dashboard(SellerId(s)).is_err(),
                "seller {s}: the dashboard reports the damaged row"
            );
        }
        for key in &damaged {
            assert_eq!(
                backend.get(key),
                Some(garbage.clone()),
                "row {key:?} was rewritten"
            );
        }
    }
}
