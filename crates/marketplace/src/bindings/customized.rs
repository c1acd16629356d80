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
//!   seller's entries in one page row per order-id range, each page the
//!   fixed-width records of `domain::rows` sorted by order id, maintained
//!   with one multi-key backend commit per business transaction and read
//!   back with one prefix scan that lists the entries in order, with no
//!   sort (the paper's PostgreSQL offload). Each checkout's or delivery's
//!   projection commit is its 2PC's **last agent**, run once every grain
//!   voted yes, still admitted over the sellers' grains: its failure
//!   aborts the transaction, and admission is the one lock over a
//!   seller's dashboard. The gateway's JSON dashboard reads the same
//!   scan, but prints only the pages whose bytes changed since the
//!   seller's last JSON dashboard: it keeps each page's JSON, rendered by
//!   serde, beside the page bytes it came from, and joins the renders
//!   under a header serde prints for the aggregate;
//! * an audit count of committed business transactions (the
//!   `audit.records` counter). Fig. 1's "log storage" for audit logging
//!   is not modelled: nothing reads an audit line back, so none is kept.
//!
//! Since PR 3 the projection and the replica cache live in the **same
//! pluggable [`StateBackend`] instance as the grain snapshots**, so
//! `BackendKind` selection is meaningful end-to-end for this platform:
//! under `snapshot_isolation` the dashboard's multi-key commits are
//! atomic and a prefix scan reads one snapshot (torn dashboards are
//! impossible by construction); under `eventual_kv` the same commits
//! apply per key and a concurrent dashboard can observe a torn subset —
//! exactly the trade the benchmark's platform×backend matrix measures.
//! The platform is built from the same [`PlatformSpec`] as the
//! transactional binding it wraps, and that one backend instance is the
//! store it reports ([`MarketplacePlatform::store`]): `backend`,
//! `is_wedged` and `unwedge` all read it.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::actor_grains::{cart_grain, seller_grain};
use super::actor_msg::Msg;
use super::transactional::TransactionalPlatform;
use crate::api::{
    CheckoutItem, CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform,
    PlatformKind,
};
use crate::domain::order::ORDERS_PER_CUSTOMER;
use crate::domain::{flow, rows, ProductReplica};
use crate::PlatformSpec;

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
    // Room for the longest key under it, a page key (`e/` + page index).
    let mut key = Vec::with_capacity(7 + 8 + 1 + 2 + 8);
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

/// Orders per entry page: the orders of 16 consecutive customers (order
/// ids are `customer × ORDERS_PER_CUSTOMER + seq`). A seller's
/// in-progress entries are kept as one row per order-id range that holds
/// any: a dashboard reads the aggregate plus those pages, and a checkout
/// or delivery rewrites one page per seller it touches.
const PAGE_SPAN: u64 = 16 * ORDERS_PER_CUSTOMER;

/// Prefix of the seller's entry pages.
fn pages_prefix(seller: SellerId) -> Vec<u8> {
    let mut key = dashboard_prefix(seller);
    key.extend_from_slice(b"e/");
    key
}

/// Key of the page holding every entry of `(seller, order)`: the page
/// index `order / PAGE_SPAN`, big-endian, so a prefix scan returns the
/// pages in order-id order. Each page's records are sorted by
/// `(order, product)` (`rows::encode_entry_page`), so the scan lists the
/// seller's entries in that order.
fn page_key(seller: SellerId, order: OrderId) -> Vec<u8> {
    let mut key = pages_prefix(seller);
    key.extend_from_slice(&(order.0 / PAGE_SPAN).to_be_bytes());
    key
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

/// Appends the JSON of `value` to `out`, serde's printer writing in place.
fn write_json<T: serde::Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> OmResult<()> {
    serde_json::to_writer(out, value)
        .map_err(|e| OmError::Internal(format!("encode a dashboard: {e}")))
}

/// About the JSON length of one dashboard entry (≈ 97 bytes each in
/// marketbench's dashboards), to size a JSON dashboard's buffer once.
const ENTRY_JSON: usize = 112;

/// One scanned row: key and value.
type Row = (Vec<u8>, Vec<u8>);

/// One entry page as a dashboard last rendered it: the page's key, the
/// bytes it was rendered from, and the JSON of its entries as a dashboard
/// lists them, comma-separated, without the array's brackets.
type RenderedPage = (Vec<u8>, Vec<u8>, Arc<[u8]>);

/// The full-featured stack.
pub struct CustomizedPlatform {
    inner: TransactionalPlatform,
    /// The same pluggable backend instance the grain snapshots use; the
    /// dashboard projection and replica cache live in their own key
    /// namespaces inside it.
    backend: Arc<dyn StateBackend>,
    /// Newest replica version each customer has observed per product —
    /// the session context that makes customer reads **monotonic**: a
    /// lagging backend session read below this floor falls back to the
    /// authoritative copy (counted, because the fallback is the cost the
    /// weaker replication discipline charges).
    replica_floors: Mutex<HashMap<(CustomerId, u64), u64>>,
    /// Each seller's last JSON dashboard, as the pages it scanned, in key
    /// order: the next one reuses the render of every page whose bytes
    /// are unchanged ([`MarketplacePlatform::seller_dashboard_json`]).
    renders: Mutex<HashMap<SellerId, Vec<RenderedPage>>>,
    /// Committed business transactions: placed checkouts, price updates,
    /// product deletes and deliveries (`audit.records`).
    audit_records: AtomicU64,
}

impl CustomizedPlatform {
    pub fn new(spec: &PlatformSpec) -> Self {
        let inner = TransactionalPlatform::new(spec);
        let backend = inner.core().cluster.storage().backend().clone();
        Self {
            inner,
            backend,
            replica_floors: Mutex::new(HashMap::new()),
            renders: Mutex::new(HashMap::new()),
            audit_records: AtomicU64::new(0),
        }
    }

    pub fn inner(&self) -> &TransactionalPlatform {
        &self.inner
    }

    fn audit(&self) {
        self.audit_records.fetch_add(1, Ordering::Relaxed);
    }

    /// Commits one projection batch, if it writes anything. Its builder
    /// read the rows it rewrites from current backend state: every
    /// `cdash!/<s>/` read-modify-write runs while its caller is admitted
    /// over `seller_grain(s)`, so no other writer can invalidate what it
    /// read. The backend's discipline decides when the commit shows.
    fn project(&self, batch: WriteBatch) -> OmResult<()> {
        if !batch.is_empty() {
            self.backend.commit(batch)?;
        }
        Ok(())
    }

    /// The seller's aggregate row as it stands, zero if never written.
    fn read_agg(&self, seller: SellerId) -> OmResult<(i64, u64)> {
        self.backend
            .get(&agg_key(seller))
            .map_or(Ok((0, 0)), |raw| decode_agg(&raw))
    }

    /// The entry page `key` of `seller` as it stands, empty if never
    /// written.
    fn read_page(&self, seller: SellerId, key: &[u8]) -> OmResult<Vec<OrderEntry>> {
        let mut page = Vec::new();
        if let Some(raw) = self.backend.get(key) {
            rows::decode_entry_page(&raw, seller, &mut page)?;
        }
        Ok(page)
    }

    /// Registers the order's dashboard entries and bumps the per-seller
    /// aggregates in one multi-key backend commit: per seller, the page
    /// of the order's id range, with the entries inserted in
    /// `(order, product)` order, and the aggregate row.
    fn project_add_order(
        &self,
        order: &om_common::entity::Order,
        status: OrderStatus,
    ) -> OmResult<()> {
        let mut by_seller: std::collections::BTreeMap<u64, Vec<OrderEntry>> = Default::default();
        for entry in order.entries(status) {
            by_seller.entry(entry.seller.0).or_default().push(entry);
        }
        let mut batch = WriteBatch::new();
        for (seller, mut added) in by_seller {
            let seller = SellerId(seller);
            let amount: i64 = added.iter().map(|e| e.total_amount.cents()).sum();
            let count = added.len() as u64;
            let key = page_key(seller, order.id);
            let mut page = self.read_page(seller, &key)?;
            added.sort_unstable_by_key(|e| e.product);
            let at = page.partition_point(|e| e.order < order.id);
            page.splice(at..at, added);
            let (cur_amount, cur_count) = self.read_agg(seller)?;
            let (Some(amount), Some(count)) =
                (cur_amount.checked_add(amount), cur_count.checked_add(count))
            else {
                return Err(OmError::Internal(format!(
                    "dashboard aggregate of {seller} overflows"
                )));
            };
            batch = batch
                .put(key, rows::encode_entry_page(&page))
                .put(agg_key(seller), encode_agg(amount, count));
        }
        self.project(batch)
    }

    /// Retires the entries of each delivered `(seller, order)`, one order
    /// per seller, in one commit.
    fn project_retire_orders(&self, delivered: &[(SellerId, OrderId)]) -> OmResult<()> {
        let mut batch = WriteBatch::new();
        for &(seller, order) in delivered {
            let key = page_key(seller, order);
            let page = self.read_page(seller, &key)?;
            // Partitioning keeps each side in page order.
            let (retired, kept): (Vec<OrderEntry>, Vec<OrderEntry>) =
                page.into_iter().partition(|e| e.order == order);
            if retired.is_empty() {
                continue;
            }
            let amount: i64 = retired.iter().map(|e| e.total_amount.cents()).sum();
            let (cur_amount, cur_count) = self.read_agg(seller)?;
            let (Some(amount), Some(count)) = (
                cur_amount.checked_sub(amount),
                cur_count.checked_sub(retired.len() as u64),
            ) else {
                return Err(OmError::Internal(format!(
                    "dashboard aggregate of {seller} is below the entries it retires"
                )));
            };
            batch = if kept.is_empty() {
                batch.delete(key)
            } else {
                batch.put(key, rows::encode_entry_page(&kept))
            };
            batch = batch.put(agg_key(seller), encode_agg(amount, count));
        }
        self.project(batch)
    }

    /// One prefix scan of the seller's dashboard: the aggregate row,
    /// decoded, and the entry pages after it. Under the snapshot-isolation
    /// backend the scan reads a single MVCC snapshot — torn reads are
    /// impossible by construction (paper: "offloads consistent querying
    /// ... to PostgreSQL"). Under the eventual backend the same scan can
    /// race a per-key commit and observe a torn dashboard — the anomaly
    /// the criteria audit counts.
    ///
    /// The aggregate row sorts first; `ingest_seller` always writes it, so
    /// a seller without one is unknown. The pages follow in order-id order,
    /// each sorted within, so decoding them one after another lists the
    /// entries by order, then product, with no sort.
    fn scan_dashboard(&self, seller: SellerId) -> OmResult<((i64, u64), Vec<Row>)> {
        let mut scanned = self.backend.scan_prefix(&dashboard_prefix(seller));
        let aggregate = match scanned.first() {
            Some((key, raw)) if *key == agg_key(seller) => decode_agg(raw)?,
            _ => return Err(OmError::NotFound(format!("{seller}"))),
        };
        scanned.remove(0);
        self.inner.core().counters.incr("dashboards");
        Ok((aggregate, scanned))
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

    fn store(&self) -> Option<&Arc<dyn StateBackend>> {
        Some(&self.backend)
    }

    /// Seeds the seller's aggregate row, so dashboards never miss, and
    /// deletes the entry pages of a seller ingested before in the same
    /// commit: re-ingesting resets both halves of the dashboard at once.
    /// Both run admitted over the seller's grain, like every projection.
    fn ingest_seller(&self, seller: Seller) -> OmResult<()> {
        let id = seller.id;
        let _admitted = self.inner.coordinator.admit(&[seller_grain(id)]);
        self.inner.ingest_seller(seller)?;
        let mut batch = WriteBatch::new().put(agg_key(id), encode_agg(0, 0));
        for (page, _) in self.backend.scan_prefix(&pages_prefix(id)) {
            batch = batch.delete(page);
        }
        self.project(batch)
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

    /// The transactional checkout with the dashboard projection as its
    /// 2PC's last agent (offloaded to the backend), then the audit count
    /// (Fig. 1 pipeline).
    fn checkout(&self, request: CheckoutRequest) -> OmResult<CheckoutOutcome> {
        let outcome = self.inner.checkout_with(request, |order| {
            self.project_add_order(order, OrderStatus::InTransit)
        })?;
        if matches!(outcome, CheckoutOutcome::Placed { order: Some(_), .. }) {
            self.audit();
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
        self.audit();
        Ok(())
    }

    fn product_delete(&self, seller: SellerId, product: ProductId) -> OmResult<()> {
        self.inner.product_delete(seller, product)?;
        if let Some(mut replica) = self.read_replica(product) {
            let version = replica.version + 1;
            replica.apply_delete(version);
            self.write_replica(product, &replica)?;
        }
        self.audit();
        Ok(())
    }

    /// The transactional delivery, retiring the delivered orders'
    /// dashboard entries as its 2PC's last agent.
    fn update_delivery(&self, max_sellers: usize) -> OmResult<u32> {
        let packages = self
            .inner
            .deliver(max_sellers, |delivered| self.project_retire_orders(delivered))?;
        self.audit();
        Ok(packages)
    }

    /// The consistent dashboard: **one prefix scan** returns the seller's
    /// aggregate row and entry pages together (`scan_dashboard`).
    fn seller_dashboard(&self, seller: SellerId) -> OmResult<SellerDashboard> {
        let ((amount, count), pages) = self.scan_dashboard(seller)?;
        let records = pages.iter().map(|(_, raw)| raw.len()).sum::<usize>() / rows::PAGE_RECORD;
        let mut entries = Vec::with_capacity(records);
        for (_, raw) in &pages {
            rows::decode_entry_page(raw, seller, &mut entries)?;
        }
        debug_assert!(
            entries
                .windows(2)
                .all(|w| (w[0].order, w[0].product) < (w[1].order, w[1].product)),
            "entry pages of {seller} out of order"
        );
        Ok(SellerDashboard {
            seller,
            in_progress_amount: Money::from_cents(amount),
            in_progress_count: count,
            entries,
        })
    }

    /// The same scan as [`seller_dashboard`](Self::seller_dashboard),
    /// answered as the bytes serde prints for it without decoding or
    /// printing every entry: the seller's last JSON dashboard left one
    /// render per page it scanned, and a page whose bytes are identical to
    /// the ones rendered reuses that render. Only new or rewritten pages
    /// are decoded and printed, by serde, one page at a time, straight
    /// into the body. The body is the header serde prints for the
    /// aggregate, then the page renders joined by commas inside the
    /// entries' brackets, then the object's end.
    ///
    /// The pages rendered replace the seller's slot, so the map holds at
    /// most each seller's last dashboard. The slot is taken out while the
    /// pages render, and the lock is never held across a backend call: a
    /// concurrent dashboard of the same seller renders its pages afresh.
    fn seller_dashboard_json(&self, seller: SellerId) -> OmResult<Vec<u8>> {
        let ((amount, count), pages) = self.scan_dashboard(seller)?;
        let held = self.renders.lock().remove(&seller).unwrap_or_default();
        let records = pages.iter().map(|(_, raw)| raw.len()).sum::<usize>() / rows::PAGE_RECORD;
        let mut body = Vec::with_capacity(128 + records * ENTRY_JSON);
        let header = SellerDashboard {
            seller,
            in_progress_amount: Money::from_cents(amount),
            in_progress_count: count,
            entries: Vec::new(),
        };
        write_json(&mut body, &header)?;
        debug_assert!(
            body.ends_with(b"[]}"),
            "entries are the dashboard's last field"
        );
        // Each page opens the entries' array, or goes on after a comma.
        body.truncate(body.len() - 3);
        let open = body.len();

        let mut rendered: Vec<RenderedPage> = Vec::with_capacity(pages.len());
        let mut entries = Vec::new();
        for (key, raw) in pages {
            let at = body.len();
            // `held` is in key order, as the scan that rendered it was.
            let json = match held.binary_search_by(|(k, _, _)| k.cmp(&key)) {
                Ok(i) if held[i].1 == raw => {
                    body.push(b'[');
                    body.extend_from_slice(&held[i].2);
                    held[i].2.clone()
                }
                _ => {
                    entries.clear();
                    rows::decode_entry_page(&raw, seller, &mut entries)?;
                    write_json(&mut body, &entries)?;
                    body.pop(); // the page's `]`
                    Arc::from(&body[at + 1..])
                }
            };
            if json.is_empty() {
                body.truncate(at);
            } else if at > open {
                body[at] = b',';
            }
            rendered.push((key, raw, json));
        }
        if body.len() == open {
            body.push(b'[');
        }
        body.extend_from_slice(b"]}");
        self.renders.lock().insert(seller, rendered);
        Ok(body)
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
        out.insert("audit.records".into(), self.audit_records.load(Ordering::Relaxed));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::PlatformSpec;
    use om_common::config::BackendKind;
    use om_common::entity::PaymentMethod;

    /// A Customized platform over its own snapshot backend with sellers
    /// `1..=sellers`, customer `s` and product `s` of seller `s` each.
    fn platform_with(sellers: u64) -> (Arc<dyn StateBackend>, CustomizedPlatform) {
        let backend = om_storage::make_backend(BackendKind::SnapshotIsolation, 8);
        let spec = PlatformSpec::new(PlatformKind::Customized, BackendKind::SnapshotIsolation)
            .decline_rate(0.0)
            .backend_instance(backend.clone());
        let platform = CustomizedPlatform::new(&spec);
        for s in 1..=sellers {
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
        (backend, platform)
    }

    /// Customer `s` checks out one unit of product `s`.
    fn check_out(platform: &dyn MarketplacePlatform, s: u64) -> OmResult<CheckoutOutcome> {
        buy(platform, CustomerId(s), s)
    }

    /// `customer` checks out one unit of product `s`, of seller `s`.
    fn buy(
        platform: &dyn MarketplacePlatform,
        customer: CustomerId,
        s: u64,
    ) -> OmResult<CheckoutOutcome> {
        let item = CheckoutItem {
            seller: SellerId(s),
            product: ProductId(s),
            quantity: 1,
        };
        platform.add_to_cart(customer, item).unwrap();
        platform.checkout(CheckoutRequest {
            customer,
            items: vec![],
            method: PaymentMethod::CreditCard,
        })
    }

    /// The renders the seller's last JSON dashboard left: key and JSON of
    /// each page it scanned.
    fn held(platform: &CustomizedPlatform, seller: SellerId) -> Vec<(Vec<u8>, Arc<[u8]>)> {
        platform
            .renders
            .lock()
            .get(&seller)
            .map_or_else(Vec::new, |pages| {
                pages
                    .iter()
                    .map(|(key, _, json)| (key.clone(), json.clone()))
                    .collect()
            })
    }

    /// Which of `after`'s pages were rendered afresh rather than reused
    /// from `before`, by key.
    fn rerendered(before: &[(Vec<u8>, Arc<[u8]>)], after: &[(Vec<u8>, Arc<[u8]>)]) -> Vec<Vec<u8>> {
        after
            .iter()
            .filter(|(key, json)| !before.iter().any(|(k, j)| k == key && Arc::ptr_eq(j, json)))
            .map(|(key, _)| key.clone())
            .collect()
    }

    /// The JSON dashboard of `seller`, checked against serde's bytes of
    /// the typed one.
    fn json_dashboard(platform: &CustomizedPlatform, seller: SellerId) -> Vec<u8> {
        let json = platform.seller_dashboard_json(seller).unwrap();
        let typed = serde_json::to_vec(&platform.seller_dashboard(seller).unwrap()).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&json),
            String::from_utf8_lossy(&typed),
            "the JSON dashboard of {seller} is not serde's"
        );
        json
    }

    /// Seller 1 with entries in two pages: customer 1's orders fall in
    /// page 0 and customer 17's in page 1.
    fn two_pages() -> (Arc<dyn StateBackend>, CustomizedPlatform) {
        let (backend, platform) = platform_with(1);
        platform
            .ingest_customer(Customer::new(CustomerId(17), "c-17".into(), "addr".into()))
            .unwrap();
        for customer in [1, 17] {
            buy(&platform, CustomerId(customer), 1).unwrap();
        }
        assert_ne!(
            page_key(SellerId(1), OrderId(ORDERS_PER_CUSTOMER)),
            page_key(SellerId(1), OrderId(17 * ORDERS_PER_CUSTOMER))
        );
        (backend, platform)
    }

    #[test]
    fn an_unchanged_dashboard_renders_no_page() {
        let (_, platform) = two_pages();
        let seller = SellerId(1);
        let first = json_dashboard(&platform, seller);
        let before = held(&platform, seller);
        assert_eq!(before.len(), 2);
        let second = json_dashboard(&platform, seller);
        assert_eq!(first, second);
        let after = held(&platform, seller);
        assert_eq!(rerendered(&before, &after), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn a_checkout_rerenders_only_the_page_it_rewrote() {
        let (_, platform) = two_pages();
        let seller = SellerId(1);
        json_dashboard(&platform, seller);
        let before = held(&platform, seller);
        buy(&platform, CustomerId(1), 1).unwrap();
        json_dashboard(&platform, seller);
        let after = held(&platform, seller);
        assert_eq!(after.len(), 2);
        assert_eq!(
            rerendered(&before, &after),
            vec![page_key(seller, OrderId(ORDERS_PER_CUSTOMER))]
        );
    }

    #[test]
    fn a_page_rewritten_to_the_same_length_is_rerendered() {
        let (backend, platform) = two_pages();
        let seller = SellerId(1);
        json_dashboard(&platform, seller);
        let before = held(&platform, seller);
        let key = page_key(seller, OrderId(17 * ORDERS_PER_CUSTOMER));
        let mut entries = Vec::new();
        rows::decode_entry_page(&backend.get(&key).unwrap(), seller, &mut entries).unwrap();
        entries[0].quantity += 1;
        let rewritten = rows::encode_entry_page(&entries);
        assert_eq!(rewritten.len(), backend.get(&key).unwrap().len());
        backend.put(&key, &rewritten);
        let json = json_dashboard(&platform, seller);
        assert_eq!(rerendered(&before, &held(&platform, seller)), vec![key]);
        let dash: SellerDashboard = serde_json::from_slice(&json).unwrap();
        assert_eq!(dash.entries.last().unwrap().quantity, 2);
    }

    #[test]
    fn a_retired_page_leaves_the_sellers_renders() {
        let (_, platform) = two_pages();
        let seller = SellerId(1);
        json_dashboard(&platform, seller);
        assert_eq!(held(&platform, seller).len(), 2);
        // The oldest order, customer 1's, is delivered: its page empties
        // and is deleted.
        assert_eq!(platform.update_delivery(10).unwrap(), 1);
        json_dashboard(&platform, seller);
        let keys: Vec<Vec<u8>> = held(&platform, seller)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            keys,
            vec![page_key(seller, OrderId(17 * ORDERS_PER_CUSTOMER))]
        );
    }

    /// A damaged projection row fails the write that would overwrite it
    /// and the dashboard that would read it, instead of decoding as an
    /// empty page or a zero aggregate.
    #[test]
    fn damaged_dashboard_rows_fail_loudly_and_stay_untouched() {
        let (backend, platform) = platform_with(2);

        // A JSON dashboard holds the render of seller 1's page while its
        // bytes are whole.
        let whole = rows::encode_entry_page(&[OrderEntry {
            order: OrderId(ORDERS_PER_CUSTOMER),
            seller: SellerId(1),
            product: ProductId(1),
            quantity: 1,
            total_amount: Money::from_cents(100),
            status: OrderStatus::InTransit,
        }]);
        backend.put(&page_key(SellerId(1), OrderId(ORDERS_PER_CUSTOMER)), &whole);
        json_dashboard(&platform, SellerId(1));
        assert_eq!(held(&platform, SellerId(1)).len(), 1);

        // Seller 1's entry page of customer 1's orders (every order id
        // customer 1 can place falls in one page) and seller 2's aggregate
        // row are garbage.
        let garbage = b"\xff\xff\xff\xff\xff".to_vec();
        let damaged = [
            page_key(SellerId(1), OrderId(ORDERS_PER_CUSTOMER)),
            agg_key(SellerId(2)),
        ];
        for key in &damaged {
            backend.put(key, &garbage);
        }

        for s in 1..=2 {
            let checkout = check_out(&platform, s);
            assert!(
                matches!(checkout, Err(OmError::Internal(_))),
                "seller {s}: a checkout over a damaged row fails, got {checkout:?}"
            );
            assert!(
                platform.seller_dashboard(SellerId(s)).is_err(),
                "seller {s}: the dashboard reports the damaged row"
            );
            let json = platform.seller_dashboard_json(SellerId(s));
            assert!(
                matches!(json, Err(OmError::Internal(_))),
                "seller {s}: the JSON dashboard reports the damaged row, got {json:?}"
            );
        }
        for key in &damaged {
            assert_eq!(
                backend.get(key),
                Some(garbage.clone()),
                "row {key:?} was rewritten"
            );
        }
        let snap = platform.snapshot().unwrap();
        assert_eq!(
            (snap.orders.len(), snap.payments.len()),
            (0, 0),
            "a checkout that failed placed its order"
        );
        assert!(snap.stock.iter().all(|s| s.qty_sold == 0), "{:?}", snap.stock);
    }

    /// Nothing is sized or summed unchecked from the stored entry count:
    /// an aggregate row claiming `u64::MAX` entries reads as a dashboard
    /// that is not snapshot-consistent, and fails the checkout that would
    /// add to it, instead of panicking.
    #[test]
    fn a_stored_count_does_not_size_the_dashboard() {
        let (backend, platform) = platform_with(1);
        let seller = SellerId(1);
        let claim = encode_agg(0, u64::MAX);
        backend.put(&agg_key(seller), &claim);
        match platform.seller_dashboard(seller) {
            Ok(dash) => assert!(!dash.is_snapshot_consistent(), "{dash:?}"),
            Err(e) => assert!(matches!(e, OmError::Internal(_)), "{e:?}"),
        }
        let checkout = check_out(&platform, 1);
        assert!(
            matches!(checkout, Err(OmError::Internal(_))),
            "{checkout:?}"
        );
        assert_eq!(backend.get(&agg_key(seller)), Some(claim));
    }

    /// A delivery that would retire more entries than the aggregate row
    /// counts fails typed, naming the seller, and writes nothing: the
    /// count is not clamped at zero, and the delivery's 2PC aborts.
    #[test]
    fn a_stored_count_below_the_retired_entries_fails_the_delivery() {
        let (backend, platform) = platform_with(1);
        let seller = SellerId(1);
        check_out(&platform, 1).unwrap();
        let (amount, count) = decode_agg(&backend.get(&agg_key(seller)).unwrap()).unwrap();
        assert_eq!((amount, count), (100, 1));
        let damaged = encode_agg(amount, 0);
        backend.put(&agg_key(seller), &damaged);
        let key = page_key(seller, OrderId(ORDERS_PER_CUSTOMER));
        let page = backend.get(&key);
        assert!(page.is_some());

        match platform.update_delivery(10) {
            Err(OmError::Internal(msg)) => assert!(msg.contains(&seller.to_string()), "{msg}"),
            other => panic!("a delivery over a damaged count answered {other:?}"),
        }
        assert_eq!(backend.get(&agg_key(seller)), Some(damaged));
        assert_eq!(backend.get(&key), page);
    }
}
