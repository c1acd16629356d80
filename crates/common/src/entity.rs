//! Marketplace domain entities.
//!
//! These mirror the eight microservices of the Online Marketplace benchmark
//! (paper §II): Cart, Product, Stock, Order, Payment, Shipment, Customer and
//! Seller. Entities are plain data; the state machines that mutate them live
//! in `om-marketplace` so that all four platform bindings share one source
//! of business logic.

use crate::event::OrderLineRef;
use crate::ids::*;
use crate::limits::MAX_QUANTITY;
use crate::money::Money;
use crate::time::EventTime;
use crate::{OmError, OmResult};
use serde::{Deserialize, Serialize};

/// A product listed by a seller (Product microservice state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Product {
    pub id: ProductId,
    pub seller: SellerId,
    pub name: String,
    pub category: String,
    pub description: String,
    pub price: Money,
    pub freight_value: Money,
    /// Version incremented on every price update; used to detect stale
    /// replicas in the Cart and to order causally-related updates.
    pub version: u64,
    /// Soft-delete flag set by the Product Delete transaction.
    pub active: bool,
}

impl Product {
    /// Applies a price update, bumping the replication version.
    pub fn set_price(&mut self, price: Money) {
        self.price = price;
        self.version += 1;
    }

    /// Soft-deletes the product, bumping the version so the deletion also
    /// propagates through the replication channel.
    pub fn delete(&mut self) {
        self.active = false;
        self.version += 1;
    }
}

/// One seller's inventory entry for one product (Stock microservice state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StockItem {
    pub key: StockKey,
    /// Units on hand and not reserved.
    pub qty_available: u32,
    /// Units reserved by in-flight checkouts, not yet confirmed.
    pub qty_reserved: u32,
    /// Lifetime counters for auditing.
    pub order_count: u64,
    /// Mirrors `Product::active`; the integrity criterion demands a stock
    /// item never references a non-existing (hard-deleted) product, and that
    /// deletions eventually deactivate stock.
    pub active: bool,
    pub version: u64,
}

impl StockItem {
    pub fn new(key: StockKey, qty: u32) -> Self {
        Self {
            key,
            qty_available: qty,
            qty_reserved: 0,
            order_count: 0,
            active: true,
            version: 0,
        }
    }

    /// Attempts to reserve `qty` units. Returns `true` on success.
    pub fn try_reserve(&mut self, qty: u32) -> bool {
        if self.active && self.qty_available >= qty {
            self.qty_available -= qty;
            self.qty_reserved += qty;
            true
        } else {
            false
        }
    }

    /// Confirms a previous reservation: reserved units leave the
    /// warehouse. Returns the quantity actually confirmed — under
    /// duplicated delivery a confirmation may arrive twice, in which case
    /// the excess is absorbed (never creating units from nothing).
    pub fn confirm(&mut self, qty: u32) -> u32 {
        let applied = qty.min(self.qty_reserved);
        self.qty_reserved -= applied;
        self.order_count += 1;
        applied
    }

    /// Cancels a previous reservation, returning units to availability.
    pub fn cancel_reservation(&mut self, qty: u32) {
        let qty = qty.min(self.qty_reserved);
        self.qty_reserved -= qty;
        self.qty_available += qty;
    }

    /// Restocks the item (data ingestion / replenishment). Refused when
    /// the units in stock would pass `u32::MAX`.
    pub fn replenish(&mut self, qty: u32) -> OmResult<()> {
        self.qty_available = self
            .qty_available
            .checked_add(qty)
            .filter(|total| total.checked_add(self.qty_reserved).is_some())
            .ok_or_else(|| {
                OmError::Rejected(format!("stock {} would pass {} units", self.key, u32::MAX))
            })?;
        Ok(())
    }
}

/// An item placed in a customer's cart (Cart microservice state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CartItem {
    pub seller: SellerId,
    pub product: ProductId,
    pub quantity: u32,
    /// Unit price the customer saw when adding the item. Checkout
    /// reconciles it against the replicated product price; a divergence is
    /// either applied (price increase surfaced to the customer) or recorded
    /// as a voucher (price drop).
    pub unit_price: Money,
    pub freight_value: Money,
    /// Product version observed when the item was added — the causal
    /// dependency the replication criterion tracks.
    pub product_version: u64,
}

impl CartItem {
    pub fn line_total(&self) -> Money {
        self.unit_price * self.quantity + self.freight_value * self.quantity
    }
}

/// Status of a customer cart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CartStatus {
    Open,
    CheckoutInFlight,
}

/// A customer's cart (Cart microservice state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cart {
    pub customer: CustomerId,
    pub status: CartStatus,
    pub items: Vec<CartItem>,
}

impl Cart {
    pub fn new(customer: CustomerId) -> Self {
        Self {
            customer,
            status: CartStatus::Open,
            items: Vec::new(),
        }
    }

    /// Adds an item, merging quantity with an existing line for the same
    /// (seller, product). Refused when the line would hold more than
    /// [`MAX_QUANTITY`] units.
    pub fn add_item(&mut self, item: CartItem) -> OmResult<()> {
        let existing = self
            .items
            .iter_mut()
            .find(|i| i.product == item.product && i.seller == item.seller);
        let held = existing.as_ref().map_or(0, |line| line.quantity);
        if held
            .checked_add(item.quantity)
            .is_none_or(|q| q > MAX_QUANTITY)
        {
            return Err(OmError::Rejected(format!(
                "a cart line of product {} holds at most {MAX_QUANTITY} units",
                item.product
            )));
        }
        match existing {
            Some(line) => {
                line.quantity += item.quantity;
                line.unit_price = item.unit_price;
                line.product_version = line.product_version.max(item.product_version);
            }
            None => self.items.push(item),
        }
        Ok(())
    }

    /// Removes the line for `product`, returning it if present.
    pub fn remove_item(&mut self, product: ProductId) -> Option<CartItem> {
        let idx = self.items.iter().position(|i| i.product == product)?;
        Some(self.items.remove(idx))
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn total(&self) -> Money {
        self.items.iter().map(|i| i.line_total()).sum()
    }
}

/// Order lifecycle (Order microservice state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OrderStatus {
    /// Created from a checkout, stock confirmed, awaiting payment.
    Invoiced,
    /// Payment confirmed, awaiting shipment.
    Paid,
    /// Payment failed; terminal.
    PaymentFailed,
    /// Shipment created; packages in flight.
    InTransit,
    /// All packages delivered; terminal.
    Delivered,
    /// Checkout aborted (stock rejection / atomicity abort); terminal.
    Canceled,
}

impl OrderStatus {
    /// Whether this status counts toward the seller dashboard "orders in
    /// progress" aggregate.
    pub fn in_progress(self) -> bool {
        matches!(
            self,
            OrderStatus::Invoiced | OrderStatus::Paid | OrderStatus::InTransit
        )
    }

    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            OrderStatus::Delivered | OrderStatus::Canceled | OrderStatus::PaymentFailed
        )
    }
}

/// One line of an order (denormalized from the cart at checkout).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderItem {
    pub order: OrderId,
    pub seller: SellerId,
    pub product: ProductId,
    pub quantity: u32,
    pub unit_price: Money,
    pub freight_value: Money,
    /// Total actually charged for the line (after checkout reconciliation).
    pub total_amount: Money,
}

/// An order (Order microservice state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Order {
    pub id: OrderId,
    pub customer: CustomerId,
    pub status: OrderStatus,
    /// Invoice number assigned by the Order service ("assigning invoice
    /// numbers" responsibility, paper §II).
    pub invoice: String,
    pub items: Vec<OrderItem>,
    pub total_amount: Money,
    pub total_freight: Money,
    pub placed_at: EventTime,
    pub updated_at: EventTime,
}

impl Order {
    pub fn total_invoice(&self) -> Money {
        self.total_amount + self.total_freight
    }

    /// The seller-dashboard entries of this order's lines, in `status`.
    pub fn entries(&self, status: OrderStatus) -> impl Iterator<Item = OrderEntry> + '_ {
        self.items.iter().map(move |i| OrderEntry {
            order: self.id,
            seller: i.seller,
            product: i.product,
            quantity: i.quantity,
            total_amount: i.total_amount,
            status,
        })
    }

    /// This order's lines as the payment and shipment steps receive them.
    pub fn lines(&self) -> Vec<OrderLineRef> {
        self.items
            .iter()
            .map(|i| OrderLineRef {
                seller: i.seller,
                product: i.product,
                quantity: i.quantity,
                total_amount: i.total_amount,
                freight_value: i.freight_value,
            })
            .collect()
    }
}

/// Payment method chosen at checkout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaymentMethod {
    CreditCard,
    DebitCard,
    Boleto,
    Voucher,
}

/// A payment record (Payment microservice state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Payment {
    pub id: PaymentId,
    pub order: OrderId,
    pub customer: CustomerId,
    pub method: PaymentMethod,
    pub amount: Money,
    pub installments: u8,
    pub approved: bool,
    pub processed_at: EventTime,
}

impl Payment {
    /// The status this payment's decision moves its order to.
    pub fn order_status(&self) -> OrderStatus {
        if self.approved {
            OrderStatus::Paid
        } else {
            OrderStatus::PaymentFailed
        }
    }
}

/// Status of one package within a shipment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PackageStatus {
    Shipped,
    Delivered,
}

/// One package: items of one seller within one order's shipment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Package {
    pub id: PackageId,
    pub shipment: ShipmentId,
    pub order: OrderId,
    pub seller: SellerId,
    pub product: ProductId,
    pub quantity: u32,
    pub freight_value: Money,
    pub status: PackageStatus,
    pub shipped_at: EventTime,
    pub delivered_at: Option<EventTime>,
}

/// A customer profile with running statistics (Customer microservice state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Customer {
    pub id: CustomerId,
    pub name: String,
    pub address: String,
    pub success_payment_count: u64,
    pub failed_payment_count: u64,
    pub delivery_count: u64,
    pub abandoned_cart_count: u64,
    pub total_spent: Money,
}

impl Customer {
    pub fn new(id: CustomerId, name: String, address: String) -> Self {
        Self {
            id,
            name,
            address,
            success_payment_count: 0,
            failed_payment_count: 0,
            delivery_count: 0,
            abandoned_cart_count: 0,
            total_spent: Money::ZERO,
        }
    }

    /// Counts one decided payment of `amount`.
    pub fn record_payment(&mut self, approved: bool, amount: Money) {
        if approved {
            self.success_payment_count += 1;
            self.total_spent += amount;
        } else {
            self.failed_payment_count += 1;
        }
    }
}

/// A seller profile with running statistics (Seller microservice state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Seller {
    pub id: SellerId,
    pub name: String,
    pub city: String,
    pub order_entry_count: u64,
    pub delivered_package_count: u64,
    pub revenue: Money,
}

impl Seller {
    pub fn new(id: SellerId, name: String, city: String) -> Self {
        Self {
            id,
            name,
            city,
            order_entry_count: 0,
            delivered_package_count: 0,
            revenue: Money::ZERO,
        }
    }
}

/// One row of the seller dashboard detail query: an order entry currently
/// in progress for a seller (paper §II, *Seller Dashboard*, second query).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderEntry {
    pub order: OrderId,
    pub seller: SellerId,
    pub product: ProductId,
    pub quantity: u32,
    pub total_amount: Money,
    pub status: OrderStatus,
}

/// The seller dashboard response: the aggregate and the tuples it was
/// computed from. The snapshot-consistency criterion demands
/// `aggregate == entries.map(total).sum()` and `count == entries.len()`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SellerDashboard {
    pub seller: SellerId,
    pub in_progress_amount: Money,
    pub in_progress_count: u64,
    pub entries: Vec<OrderEntry>,
}

impl SellerDashboard {
    /// Verifies the two dashboard queries reflect the same snapshot.
    pub fn is_snapshot_consistent(&self) -> bool {
        let sum: Money = self.entries.iter().map(|e| e.total_amount).sum();
        sum == self.in_progress_amount && self.entries.len() as u64 == self.in_progress_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(product: u64, qty: u32, cents: i64) -> CartItem {
        CartItem {
            seller: SellerId(1),
            product: ProductId(product),
            quantity: qty,
            unit_price: Money::from_cents(cents),
            freight_value: Money::ZERO,
            product_version: 0,
        }
    }

    #[test]
    fn cart_merges_same_product_lines() {
        let mut cart = Cart::new(CustomerId(1));
        cart.add_item(item(5, 1, 100)).unwrap();
        cart.add_item(item(5, 2, 110)).unwrap();
        assert_eq!(cart.items.len(), 1);
        assert_eq!(cart.items[0].quantity, 3);
        assert_eq!(cart.items[0].unit_price, Money::from_cents(110));
    }

    #[test]
    fn cart_remove_and_total() {
        let mut cart = Cart::new(CustomerId(1));
        cart.add_item(item(1, 2, 100)).unwrap();
        cart.add_item(item(2, 1, 50)).unwrap();
        assert_eq!(cart.total(), Money::from_cents(250));
        let removed = cart.remove_item(ProductId(1)).unwrap();
        assert_eq!(removed.quantity, 2);
        assert_eq!(cart.total(), Money::from_cents(50));
        assert!(cart.remove_item(ProductId(99)).is_none());
    }

    #[test]
    fn a_cart_line_holds_at_most_max_quantity_units() {
        let mut cart = Cart::new(CustomerId(1));
        cart.add_item(item(5, MAX_QUANTITY - 1, 100)).unwrap();
        cart.add_item(item(5, 1, 100)).unwrap();
        for qty in [1, u32::MAX] {
            assert!(cart.add_item(item(5, qty, 100)).is_err(), "{qty}");
        }
        assert_eq!(cart.items[0].quantity, MAX_QUANTITY);
    }

    #[test]
    fn stock_is_not_replenished_past_u32_max() {
        let mut s = StockItem::new(StockKey::new(SellerId(1), ProductId(1)), 10);
        assert!(s.try_reserve(4));
        s.replenish(u32::MAX - 10).unwrap();
        assert!(s.replenish(1).is_err(), "reserved units count too");
        assert_eq!((s.qty_available, s.qty_reserved), (u32::MAX - 4, 4));
    }

    #[test]
    fn stock_reserve_confirm_cancel() {
        let mut s = StockItem::new(StockKey::new(SellerId(1), ProductId(1)), 10);
        assert!(s.try_reserve(4));
        assert_eq!((s.qty_available, s.qty_reserved), (6, 4));
        assert!(!s.try_reserve(7), "cannot overshoot availability");
        s.confirm(4);
        assert_eq!((s.qty_available, s.qty_reserved), (6, 0));
        assert_eq!(s.order_count, 1);
        assert!(s.try_reserve(6));
        s.cancel_reservation(6);
        assert_eq!((s.qty_available, s.qty_reserved), (6, 0));
    }

    #[test]
    fn inactive_stock_rejects_reservations() {
        let mut s = StockItem::new(StockKey::new(SellerId(1), ProductId(1)), 10);
        s.active = false;
        assert!(!s.try_reserve(1));
    }

    #[test]
    fn product_versioning_on_update_and_delete() {
        let mut p = Product {
            id: ProductId(1),
            seller: SellerId(1),
            name: "x".into(),
            category: "c".into(),
            description: String::new(),
            price: Money::from_cents(100),
            freight_value: Money::ZERO,
            version: 0,
            active: true,
        };
        p.set_price(Money::from_cents(120));
        assert_eq!(p.version, 1);
        p.delete();
        assert_eq!(p.version, 2);
        assert!(!p.active);
    }

    #[test]
    fn order_status_progress_classification() {
        assert!(OrderStatus::Invoiced.in_progress());
        assert!(OrderStatus::Paid.in_progress());
        assert!(OrderStatus::InTransit.in_progress());
        assert!(!OrderStatus::Delivered.in_progress());
        assert!(!OrderStatus::Canceled.in_progress());
        assert!(OrderStatus::Delivered.is_terminal());
        assert!(!OrderStatus::Paid.is_terminal());
    }

    #[test]
    fn dashboard_consistency_check() {
        let entry = |amount: i64| OrderEntry {
            order: OrderId(1),
            seller: SellerId(1),
            product: ProductId(1),
            quantity: 1,
            total_amount: Money::from_cents(amount),
            status: OrderStatus::Invoiced,
        };
        let ok = SellerDashboard {
            seller: SellerId(1),
            in_progress_amount: Money::from_cents(300),
            in_progress_count: 2,
            entries: vec![entry(100), entry(200)],
        };
        assert!(ok.is_snapshot_consistent());
        let torn = SellerDashboard {
            in_progress_amount: Money::from_cents(100),
            ..ok.clone()
        };
        assert!(!torn.is_snapshot_consistent());
    }
}
