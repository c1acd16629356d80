//! The row format of every domain service's state — defined once, here.
#![deny(missing_docs)]
//!
//! Two runtimes keep the services' state as rows: the dataflow binding's
//! stateful functions and the actor bindings' grains. Both read through
//! [`RowReader`] and write through [`RowWriter`], and both call the codecs
//! below, so a function body or a grain turn is three steps: load the
//! service from the rows its message names, run the service's workflow
//! step ([`super::flow`]), and write the row delta.
//!
//! An entity is its service's [`kinds`] name plus a 64-bit id; the
//! runtime stores each of its rows under a key made of both and the row
//! name (`docs/DURABILITY.md` has the grains' key layout,
//! `docs/ARCHITECTURE.md` the dataflow checkpoint's). Its header — or
//! its whole state, when it does not grow — is the row with the empty name
//! ([`ROOT`]). A growing aggregate adds one row per entity under a tag
//! byte followed by big-endian ids, so a prefix scan of a tag returns rows
//! in id order and a change touches only the rows of the entities it
//! names. Values are the workspace's binary codec (`om_common::codec`).
//!
//! | service | row | name | value |
//! |---|---|---|---|
//! | product, replica, stock, cart, customer, delivery coordinator | root | empty | the whole state: `Product`, [`ProductReplica`](super::ProductReplica), [`StockService`](super::StockService), [`CartService`](super::CartService), `Customer`, the coordinator's state |
//! | seller ([`SellerView`]) | header | empty | the view with no entries |
//! | | entry | [`ENTRY`] + order + product | `OrderEntry` |
//! | order ([`OrderService`]) | header | empty | the service with no orders, no assemblies and no deliveries |
//! | | order | [`ORDER`] + order | the order and the sellers that delivered it, while it is in transit |
//! | | assembly | [`PENDING`] + transaction | `PendingCheckout` |
//! | payment ([`PaymentService`]) | header | empty | the service with no payments |
//! | | payment | [`PAYMENT`] + payment | `Payment` |
//! | shipment ([`ShipmentService`]) | header | empty | the service with no packages |
//! | | package | [`PACKAGE`] + order + package | `Package` |
//! | | open order | [`OPEN`] + shipped-at + order | empty; one per order with an undelivered package, so the first row is the seller's oldest |
//!
//! The dataflow functions keep every service this way. The actor grains
//! persist product, replica, stock and customer as their root row and the
//! seller as header plus entry rows; cart, order, payment and shipment
//! grains keep their state in memory only.

use om_common::entity::{Order, OrderEntry, Package, PackageStatus, Payment};
use om_common::ids::{CustomerId, OrderId, SellerId, TransactionId};
use om_common::time::EventTime;
use om_common::{OmError, OmResult};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

use super::{OrderService, PaymentService, SellerView, ShipmentService};

/// Each service's entity kind: the actor grain kind and the dataflow
/// function type, which open every storage key of the entity's rows.
pub mod kinds {
    /// Product, keyed by product.
    pub const PRODUCT: &str = "product";
    /// The cart side's product replica, keyed by product.
    pub const REPLICA: &str = "replica";
    /// Stock, keyed by product.
    pub const STOCK: &str = "stock";
    /// Cart, keyed by customer.
    pub const CART: &str = "cart";
    /// Orders, keyed by customer.
    pub const ORDER: &str = "order";
    /// Payments, keyed by customer.
    pub const PAYMENT: &str = "payment";
    /// Shipments, keyed by seller.
    pub const SHIPMENT: &str = "shipment";
    /// The seller view, keyed by seller.
    pub const SELLER: &str = "seller";
    /// Customer profile, keyed by customer.
    pub const CUSTOMER: &str = "customer";
}

/// The name of an entity's root row: its header, or its whole state.
pub const ROOT: &[u8] = b"";
/// Seller: one row per `(order, product)` dashboard entry.
pub const ENTRY: u8 = b'e';
/// Order: one row per order.
pub const ORDER: u8 = b'o';
/// Order: one row per checkout assembly still collecting stock answers.
pub const PENDING: u8 = b'p';
/// Payment: one row per payment.
pub const PAYMENT: u8 = b'p';
/// Shipment: one row per package, under its order.
pub const PACKAGE: u8 = b'k';
/// Shipment: the open-orders index, `(shipped_at, order)`.
pub const OPEN: u8 = b'u';

/// Read access to one entity's rows.
pub trait RowReader {
    /// The bytes of `row`, if it exists.
    fn get(&self, row: &[u8]) -> Option<&[u8]>;

    /// `(name, bytes)` of every row whose name starts with `prefix`, in
    /// row order.
    fn prefix<'a>(&'a self, prefix: &'a [u8]) -> impl Iterator<Item = (&'a [u8], &'a [u8])>;
}

/// Write access to one entity's rows.
pub trait RowWriter {
    /// Writes `row`.
    fn put_row(&mut self, row: Vec<u8>, bytes: Vec<u8>);

    /// Deletes `row`.
    fn delete_row(&mut self, row: Vec<u8>);
}

/// An entity's rows held in memory: its root row and its other rows in row
/// order — what a row-keyed grain's activation receives, or what a read of
/// committed state returns.
#[derive(Debug, Default)]
pub struct StoredRows {
    /// The root row.
    pub root: Option<Vec<u8>>,
    /// Every other row as `(name, bytes)`, in row order.
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
}

impl StoredRows {
    /// The rows of an entity whose state is only its root row.
    pub fn root(root: Option<Vec<u8>>) -> Self {
        Self {
            root,
            rows: Vec::new(),
        }
    }
}

impl RowReader for StoredRows {
    fn get(&self, row: &[u8]) -> Option<&[u8]> {
        if row.is_empty() {
            return self.root.as_deref();
        }
        let i = self
            .rows
            .binary_search_by(|(name, _)| name.as_slice().cmp(row))
            .ok()?;
        Some(&self.rows[i].1)
    }

    fn prefix<'a>(&'a self, prefix: &'a [u8]) -> impl Iterator<Item = (&'a [u8], &'a [u8])> {
        let start = self
            .rows
            .partition_point(|(name, _)| name.as_slice() < prefix);
        self.rows[start..]
            .iter()
            .take_while(move |(name, _)| name.starts_with(prefix))
            .map(|(name, bytes)| (name.as_slice(), bytes.as_slice()))
    }
}

/// The name of the row tagged `tag` for the entity `ids`.
fn row(tag: u8, ids: &[u64]) -> Vec<u8> {
    let mut name = Vec::with_capacity(1 + 8 * ids.len());
    name.push(tag);
    for id in ids {
        name.extend_from_slice(&id.to_be_bytes());
    }
    name
}

/// The `n`-th id of a name built by [`row`].
fn row_id(name: &[u8], n: usize) -> OmResult<u64> {
    name.get(1 + 8 * n..9 + 8 * n)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_be_bytes)
        .ok_or_else(|| OmError::Internal(format!("malformed row name {name:?}")))
}

fn decode<T: DeserializeOwned>(bytes: &[u8]) -> OmResult<T> {
    om_common::codec::from_bytes(bytes)
        .map_err(|e| OmError::Internal(format!("state row does not decode: {e:?}")))
}

fn encode<T: Serialize>(value: &T) -> OmResult<Vec<u8>> {
    om_common::codec::to_bytes(value)
        .map_err(|e| OmError::Internal(format!("state row does not encode: {e:?}")))
}

/// Every row under `prefix`, decoded, in row order.
fn decode_all<'a, T: DeserializeOwned + 'a>(
    rows: &'a impl RowReader,
    prefix: &'a [u8],
) -> impl Iterator<Item = OmResult<T>> + 'a {
    rows.prefix(prefix).map(|(_, bytes)| decode(bytes))
}

/// The root row decoded: a single-row service's whole state, or a growing
/// aggregate's header.
pub fn load_root<T: DeserializeOwned>(rows: &impl RowReader) -> OmResult<Option<T>> {
    rows.get(ROOT).map(decode).transpose()
}

/// Writes `value` as the root row. The writers drop or coalesce a write
/// that leaves the row as it was, so callers store their whole state.
pub fn store_root<T: Serialize>(out: &mut impl RowWriter, value: &T) -> OmResult<()> {
    out.put_row(ROOT.to_vec(), encode(value)?);
    Ok(())
}

// ---- seller -------------------------------------------------------------

/// `((order, product), entry)` of every entry row under `prefix`.
fn entry_rows<'a>(
    rows: &'a impl RowReader,
    prefix: &'a [u8],
) -> impl Iterator<Item = OmResult<((OrderId, u64), OrderEntry)>> + 'a {
    rows.prefix(prefix).map(|(name, bytes)| {
        let key = (OrderId(row_id(name, 0)?), row_id(name, 1)?);
        Ok((key, decode(bytes)?))
    })
}

impl SellerView {
    /// The header and every entry that reads: a seller's whole view, as a
    /// grain activates it. An entry row whose name or value does not read
    /// is left out, so a damaged row costs its entry, not the seller.
    pub fn load_all(rows: &impl RowReader) -> OmResult<Option<SellerView>> {
        let Some(mut view) = load_root::<SellerView>(rows)? else {
            return Ok(None);
        };
        view.entries = entry_rows(rows, &[ENTRY]).flatten().collect();
        Ok(Some(view))
    }

    /// Deletes every entry row of `rows` by name, decoding none: the rows a
    /// re-ingested seller retires.
    pub fn delete_entries(rows: &impl RowReader, out: &mut impl RowWriter) {
        for (name, _) in rows.prefix(&[ENTRY]) {
            out.delete_row(name.to_vec());
        }
    }

    /// Adds `order`'s entry rows to the view.
    pub fn load_order(&mut self, rows: &impl RowReader, order: OrderId) -> OmResult<()> {
        for entry in entry_rows(rows, &row(ENTRY, &[order.0])) {
            let (key, entry) = entry?;
            self.entries.insert(key, entry);
        }
        Ok(())
    }
}

/// A seller's entries in row order: the dashboard's detail query.
pub fn seller_entries(rows: &impl RowReader) -> OmResult<Vec<OrderEntry>> {
    decode_all(rows, &[ENTRY]).collect()
}

/// The entry keys some orders of a seller view held before a change.
/// Storing the changed view through it writes the header and those
/// orders' entry rows, and deletes every key of theirs the change retired
/// — a change stores the orders it touched, not the seller's history.
#[derive(Debug, Default)]
pub struct SellerDelta {
    orders: Vec<OrderId>,
    before: Vec<(OrderId, u64)>,
}

impl SellerDelta {
    /// Captures the entry keys `orders` hold in `view`, before the change.
    pub fn of(view: &SellerView, orders: impl IntoIterator<Item = OrderId>) -> Self {
        let orders: Vec<OrderId> = orders.into_iter().collect();
        let before = orders
            .iter()
            .flat_map(|&o| view.entries.range((o, 0)..=(o, u64::MAX)).map(|(k, _)| *k))
            .collect();
        Self { orders, before }
    }

    /// Captures every entry key of `view`, which a new view replaces:
    /// storing the new view through it deletes all of the old one's rows.
    pub fn replace(view: &SellerView) -> Self {
        Self {
            orders: Vec::new(),
            before: view.entries.keys().copied().collect(),
        }
    }

    /// Writes `view`'s row delta: the retired keys deleted, the captured
    /// orders' entries put, then the header.
    pub fn store(&self, view: &SellerView, out: &mut impl RowWriter) -> OmResult<()> {
        for &(order, product) in self.before.iter().filter(|k| !view.entries.contains_key(k)) {
            out.delete_row(row(ENTRY, &[order.0, product]));
        }
        for &order in &self.orders {
            for (&(_, product), entry) in view.entries.range((order, 0)..=(order, u64::MAX)) {
                out.put_row(row(ENTRY, &[order.0, product]), encode(entry)?);
            }
        }
        let header = SellerView {
            seller: view.seller.clone(),
            in_progress_amount: view.in_progress_amount,
            in_progress_count: view.in_progress_count,
            entries: BTreeMap::new(),
        };
        store_root(out, &header)
    }
}

// ---- order --------------------------------------------------------------

/// The value of one order row.
#[derive(Serialize, Deserialize)]
struct OrderRow {
    order: Order,
    /// The sellers that delivered the order, while it is in transit.
    delivered: BTreeSet<SellerId>,
}

/// A customer's [`OrderService`] holding only the rows a message names:
/// the header is the service with empty collections (customer, invoice
/// sequence), and orders and pending assemblies are loaded into it by id,
/// so the service's own methods run unchanged on O(1) state.
pub struct CustomerOrders {
    /// The service, holding the loaded rows.
    pub svc: OrderService,
    loaded_pending: Option<TransactionId>,
}

impl CustomerOrders {
    /// The header alone (a new service when `customer` has none yet).
    pub fn load(customer: CustomerId, rows: &impl RowReader) -> OmResult<Self> {
        Ok(Self {
            svc: load_root(rows)?.unwrap_or_else(|| OrderService::new(customer)),
            loaded_pending: None,
        })
    }

    /// Loads order `id`'s row, if it exists.
    pub fn load_order(&mut self, rows: &impl RowReader, id: OrderId) -> OmResult<()> {
        if let Some(bytes) = rows.get(&row(ORDER, &[id.0])) {
            let OrderRow { order, delivered } = decode(bytes)?;
            self.svc.orders.insert(id, order);
            if !delivered.is_empty() {
                self.svc.delivered.insert(id, delivered);
            }
        }
        Ok(())
    }

    /// Loads assembly `tid`'s row, if it exists.
    pub fn load_pending(&mut self, rows: &impl RowReader, tid: TransactionId) -> OmResult<()> {
        if let Some(bytes) = rows.get(&row(PENDING, &[tid.0])) {
            self.svc.pending.insert(tid, decode(bytes)?);
            self.loaded_pending = Some(tid);
        }
        Ok(())
    }

    /// Writes the working set back: one row per order and per pending
    /// assembly it holds, the loaded assembly's row deleted if the service
    /// completed it, and the header with the collections taken out.
    pub fn store(mut self, out: &mut impl RowWriter) -> OmResult<()> {
        let mut delivered = std::mem::take(&mut self.svc.delivered);
        for (id, order) in std::mem::take(&mut self.svc.orders) {
            let delivered = delivered.remove(&id).unwrap_or_default();
            out.put_row(row(ORDER, &[id.0]), encode(&OrderRow { order, delivered })?);
        }
        let pending = std::mem::take(&mut self.svc.pending);
        if let Some(tid) = self.loaded_pending.filter(|tid| !pending.contains_key(tid)) {
            out.delete_row(row(PENDING, &[tid.0]));
        }
        for (tid, assembly) in pending {
            out.put_row(row(PENDING, &[tid.0]), encode(&assembly)?);
        }
        store_root(out, &self.svc)
    }
}

/// A customer's orders, in id order.
pub fn orders(rows: &impl RowReader) -> OmResult<Vec<Order>> {
    decode_all(rows, &[ORDER])
        .map(|r| r.map(|r: OrderRow| r.order))
        .collect()
}

// ---- payment ------------------------------------------------------------

impl PaymentService {
    /// Writes the service back: one row per payment it holds, then the
    /// header with the payments taken out.
    pub fn store_rows(mut self, out: &mut impl RowWriter) -> OmResult<()> {
        for (id, payment) in std::mem::take(&mut self.payments) {
            out.put_row(row(PAYMENT, &[id.0]), encode(&payment)?);
        }
        store_root(out, &self)
    }
}

/// A customer's payments, in id order.
pub fn payments(rows: &impl RowReader) -> OmResult<Vec<Payment>> {
    decode_all(rows, &[PAYMENT]).collect()
}

// ---- shipment -----------------------------------------------------------

impl ShipmentService {
    /// The head of the open-orders index: the order
    /// [`deliver_oldest_order`](Self::deliver_oldest_order) picks over the
    /// whole package history, `min (shipped_at, order)`.
    pub fn oldest_open(rows: &impl RowReader) -> OmResult<Option<(EventTime, OrderId)>> {
        rows.prefix(&[OPEN])
            .next()
            .map(|(name, _)| Ok((EventTime(row_id(name, 0)?), OrderId(row_id(name, 1)?))))
            .transpose()
    }

    /// Adds `order`'s package rows to the service.
    pub fn load_order(&mut self, rows: &impl RowReader, order: OrderId) -> OmResult<()> {
        for package in decode_all(rows, &row(PACKAGE, &[order.0])) {
            self.packages.push(package?);
        }
        Ok(())
    }

    /// Writes the service back: each `(shipped_at, order)` of the packages
    /// it holds enters the open-orders index while one of them is
    /// undelivered and leaves it when none is, one row per package, then
    /// the header with the packages taken out.
    pub fn store_rows(mut self, out: &mut impl RowWriter) -> OmResult<()> {
        let mut open: BTreeMap<(EventTime, OrderId), bool> = BTreeMap::new();
        for p in &self.packages {
            *open.entry((p.shipped_at, p.order)).or_default() |= p.status == PackageStatus::Shipped;
        }
        for ((shipped_at, order), undelivered) in open {
            let name = row(OPEN, &[shipped_at.0, order.0]);
            if undelivered {
                out.put_row(name, Vec::new());
            } else {
                out.delete_row(name);
            }
        }
        for package in std::mem::take(&mut self.packages) {
            out.put_row(
                row(PACKAGE, &[package.order.0, package.id.0]),
                encode(&package)?,
            );
        }
        store_root(out, &self)
    }
}

/// A seller's packages, by order.
pub fn packages(rows: &impl RowReader) -> OmResult<Vec<Package>> {
    decode_all(rows, &[PACKAGE]).collect()
}
