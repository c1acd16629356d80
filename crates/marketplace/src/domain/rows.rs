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
//! names. Values are the workspace's binary codec (`om_common::codec`),
//! except dashboard entries: a seller's and the Customized projection's
//! are both entry pages, whose fixed-width records decode with no codec
//! at all.
//!
//! | service | row | name | value |
//! |---|---|---|---|
//! | product, replica, stock, cart, customer, delivery coordinator | root | empty | the whole state: `Product`, [`ProductReplica`](super::ProductReplica), [`StockService`](super::StockService), [`CartService`](super::CartService), `Customer`, the coordinator's state |
//! | seller ([`SellerView`]) | header | empty | the view with no entries |
//! | | entry | [`ENTRY`] + order | the order's entry page: its `OrderEntry`s, sorted by product ([`SellerView::store_orders`]) |
//! | order ([`OrderService`]) | header | empty | the service with no orders, no assemblies and no deliveries |
//! | | order | [`ORDER`] + order | the order and the sellers that delivered it, while it is in transit |
//! | | assembly | [`PENDING`] + transaction | `PendingCheckout` |
//! | payment ([`PaymentService`]) | header | empty | the service with no payments |
//! | | payment | [`PAYMENT`] + payment | `Payment` |
//! | shipment ([`ShipmentService`]) | header | empty | the service with no packages |
//! | | package | [`PACKAGE`] + order + package | `Package` |
//! | | open order | [`OPEN`] + shipped-at + order | empty; one per order with an undelivered package, so the first row is the seller's oldest |
//! | Customized dashboard projection | entry page | the binding's page key: seller + order-id range | the range's entry page |
//!
//! An entry page is [`PAGE_RECORD`]-byte records, one per `OrderEntry`,
//! sorted by `(order, product)`: order `u64`, product `u64`, quantity
//! `u32`, total cents `i64`, status byte; the seller is in the key
//! ([`encode_entry_page`]). The seller keys its pages by order, so that a
//! change rewrites only the orders it touched, whatever the seller's
//! history; the Customized projection keys its by a range of 16
//! customers' orders, so that a dashboard scans few rows.
//!
//! The dataflow functions keep every service this way. The actor grains
//! persist product, replica, stock and customer as their root row and the
//! seller as header plus entry rows; cart, order, payment and shipment
//! grains keep their state in memory only.

use om_common::entity::{Order, OrderEntry, OrderStatus, Package, PackageStatus, Payment};
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId, TransactionId};
use om_common::time::EventTime;
use om_common::{Money, OmError, OmResult};
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
/// Seller: one row per order with dashboard entries, holding its entry
/// page.
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

/// Appends the entries of every entry row under `prefix` to `out`, in row
/// order: one order's entry page each. A row whose name is shorter than
/// its order id, whose page does not decode, or whose page holds another
/// order's entries fails with `OmError::Internal` — or, `skip_damaged`, is
/// left out, costing its order's entries and not the others'.
fn read_entry_rows(
    rows: &impl RowReader,
    prefix: &[u8],
    seller: SellerId,
    skip_damaged: bool,
    out: &mut Vec<OrderEntry>,
) -> OmResult<()> {
    for (name, page) in rows.prefix(prefix) {
        let start = out.len();
        let read = row_id(name, 0).and_then(|order| {
            decode_entry_page(page, seller, out)?;
            match out[start..].iter().find(|e| e.order.0 != order) {
                Some(e) => Err(OmError::Internal(format!(
                    "entry row of order {order} of {seller} holds {}",
                    e.order
                ))),
                None => Ok(()),
            }
        });
        if let Err(e) = read {
            out.truncate(start);
            if !skip_damaged {
                return Err(e);
            }
        }
    }
    Ok(())
}

impl SellerView {
    /// The header and every entry that reads: a seller's whole view, as a
    /// grain activates it. An entry row that does not read is left out, so
    /// a damaged row costs its order's entries, not the seller.
    pub fn load_all(rows: &impl RowReader) -> OmResult<Option<SellerView>> {
        let Some(mut view) = load_root::<SellerView>(rows)? else {
            return Ok(None);
        };
        let mut entries = Vec::new();
        read_entry_rows(rows, &[ENTRY], view.seller.id, true, &mut entries)?;
        view.entries = entries.into_iter().map(|e| ((e.order, e.product.0), e)).collect();
        Ok(Some(view))
    }

    /// Deletes every entry row of `rows` by name, decoding none: the rows a
    /// re-ingested seller retires.
    pub fn delete_entries(rows: &impl RowReader, out: &mut impl RowWriter) {
        for (name, _) in rows.prefix(&[ENTRY]) {
            out.delete_row(name.to_vec());
        }
    }

    /// Adds `order`'s entries to the view, from its entry row.
    pub fn load_order(&mut self, rows: &impl RowReader, order: OrderId) -> OmResult<()> {
        let mut entries = Vec::new();
        read_entry_rows(rows, &row(ENTRY, &[order.0]), self.seller.id, false, &mut entries)?;
        for e in entries {
            self.entries.insert((e.order, e.product.0), e);
        }
        Ok(())
    }

    /// Writes the entry rows of `orders` from the view, then the header: an
    /// order's entries as one entry page, by product, or its row deleted
    /// when the view holds none of them. A change stores the orders it
    /// touched, not the seller's history.
    pub fn store_orders(
        &self,
        orders: impl IntoIterator<Item = OrderId>,
        out: &mut impl RowWriter,
    ) -> OmResult<()> {
        for order in orders {
            let name = row(ENTRY, &[order.0]);
            let page = encode_entry_page(self.order_entries(order));
            if page.is_empty() {
                out.delete_row(name);
            } else {
                out.put_row(name, page);
            }
        }
        let header = SellerView {
            seller: self.seller.clone(),
            in_progress_amount: self.in_progress_amount,
            in_progress_count: self.in_progress_count,
            entries: BTreeMap::new(),
        };
        store_root(out, &header)
    }
}

/// `seller`'s entries in row order, which is `(order, product)` order: the
/// dashboard's detail query.
pub fn seller_entries(rows: &impl RowReader, seller: SellerId) -> OmResult<Vec<OrderEntry>> {
    let mut entries = Vec::new();
    read_entry_rows(rows, &[ENTRY], seller, false, &mut entries)?;
    Ok(entries)
}

// ---- entry pages ----------------------------------------------------------

/// Bytes of one entry in an entry page: order `u64`, product `u64`,
/// quantity `u32`, total cents `i64` and the status byte, little-endian.
pub const PAGE_RECORD: usize = 8 + 8 + 4 + 8 + 1;

/// Every [`OrderStatus`] at the index of its byte in an entry page: the
/// one map between the two.
const STATUS_BYTES: [OrderStatus; 6] = [
    OrderStatus::Invoiced,
    OrderStatus::Paid,
    OrderStatus::PaymentFailed,
    OrderStatus::InTransit,
    OrderStatus::Delivered,
    OrderStatus::Canceled,
];

/// An entry page holding `entries`, in the order given. Its writers keep
/// them sorted by `(order, product)`, so that pages read in key order list
/// a seller's entries in that order with no sort.
pub fn encode_entry_page<'a>(entries: impl IntoIterator<Item = &'a OrderEntry>) -> Vec<u8> {
    let entries = entries.into_iter();
    let mut out = Vec::with_capacity(entries.size_hint().0 * PAGE_RECORD);
    for e in entries {
        // A status missing from the map writes a byte that never decodes.
        let status = STATUS_BYTES.iter().position(|&s| s == e.status);
        out.extend_from_slice(&e.order.0.to_le_bytes());
        out.extend_from_slice(&e.product.0.to_le_bytes());
        out.extend_from_slice(&e.quantity.to_le_bytes());
        out.extend_from_slice(&e.total_amount.cents().to_le_bytes());
        out.push(status.map_or(u8::MAX, |b| b as u8));
    }
    out
}

/// Appends the entries of `seller`'s entry page `page` to `out`, in page
/// order. A page that is not a whole number of records, or that holds an
/// unknown status byte, fails with `OmError::Internal` and leaves `out` as
/// it was.
pub fn decode_entry_page(page: &[u8], seller: SellerId, out: &mut Vec<OrderEntry>) -> OmResult<()> {
    if !page.len().is_multiple_of(PAGE_RECORD) {
        return Err(OmError::Internal(format!(
            "dashboard entry page does not decode: {} bytes, not a multiple of {PAGE_RECORD}",
            page.len()
        )));
    }
    let start = out.len();
    out.reserve(page.len() / PAGE_RECORD);
    for r in page.chunks_exact(PAGE_RECORD) {
        let bytes = |at: usize| r[at..at + 8].try_into().expect("8 bytes");
        let status_byte = r[PAGE_RECORD - 1];
        let Some(&status) = STATUS_BYTES.get(status_byte as usize) else {
            out.truncate(start);
            return Err(OmError::Internal(format!(
                "dashboard entry page does not decode: status byte {status_byte}"
            )));
        };
        out.push(OrderEntry {
            order: OrderId(u64::from_le_bytes(bytes(0))),
            seller,
            product: ProductId(u64::from_le_bytes(bytes(8))),
            quantity: u32::from_le_bytes(r[16..20].try_into().expect("4 bytes")),
            total_amount: Money::from_cents(i64::from_le_bytes(bytes(20))),
            status,
        });
    }
    Ok(())
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
