//! Order microservice state: invoice numbering, order assembly and the
//! order status machine (paper §II: "Order contains key logic about the
//! ordering process, including assigning invoice numbers, assembling the
//! items with stock confirmed, and calculating order totals").

use om_common::entity::{CartItem, Order, OrderItem, OrderStatus};
use om_common::ids::{CustomerId, OrderId, TransactionId};
use om_common::time::EventTime;
use om_common::{Money, OmError, OmResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-customer order service state. Orders are partitioned by customer;
/// ids are globally unique via `customer * ORDERS_PER_CUSTOMER + seq`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OrderService {
    pub customer: CustomerId,
    pub orders: BTreeMap<OrderId, Order>,
    next_seq: u64,
    /// Checkout assemblies in progress: stock confirmations collected per
    /// transaction until `expected` lines answered (event-driven bindings).
    /// Public like `orders`: the row-keyed dataflow binding loads only the
    /// assembly a message names into an otherwise empty service.
    pub pending: BTreeMap<TransactionId, PendingCheckout>,
}

/// Space reserved per customer in the order-id namespace.
pub const ORDERS_PER_CUSTOMER: u64 = 1_000_000;

/// The customer whose order service placed `order`.
pub fn customer_of_order(order: OrderId) -> CustomerId {
    CustomerId(order.0 / ORDERS_PER_CUSTOMER)
}

/// A checkout whose stock confirmations are still arriving.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PendingCheckout {
    pub expected: usize,
    pub confirmed: Vec<CartItem>,
    pub rejected: Vec<CartItem>,
    pub requested_at: EventTime,
}

impl OrderService {
    pub fn new(customer: CustomerId) -> Self {
        Self {
            customer,
            orders: BTreeMap::new(),
            next_seq: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Registers an in-flight checkout expecting `expected` stock answers.
    pub fn begin_assembly(&mut self, tid: TransactionId, expected: usize, at: EventTime) {
        self.pending.insert(
            tid,
            PendingCheckout {
                expected,
                confirmed: Vec::new(),
                rejected: Vec::new(),
                requested_at: at,
            },
        );
    }

    /// Records one stock answer; returns the assembly when complete.
    pub fn record_stock_answer(
        &mut self,
        tid: TransactionId,
        item: CartItem,
        reserved: bool,
    ) -> Option<PendingCheckout> {
        let entry = self.pending.get_mut(&tid)?;
        if reserved {
            entry.confirmed.push(item);
        } else {
            entry.rejected.push(item);
        }
        if entry.confirmed.len() + entry.rejected.len() >= entry.expected {
            self.pending.remove(&tid)
        } else {
            None
        }
    }

    /// Number of assemblies still waiting for answers (anomaly signal for
    /// the auditor: stuck assemblies mean lost events).
    pub fn stuck_assemblies(&self) -> usize {
        self.pending.len()
    }

    /// Creates an order from confirmed items: assigns the id and invoice
    /// number, computes totals. Rejects empty confirmations.
    pub fn create_order(
        &mut self,
        items: &[CartItem],
        at: EventTime,
    ) -> OmResult<Order> {
        if items.is_empty() {
            return Err(OmError::Rejected("no stock-confirmed items".into()));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = OrderId(self.customer.0 * ORDERS_PER_CUSTOMER + seq);
        let order_items: Vec<OrderItem> = items
            .iter()
            .map(|i| OrderItem {
                order: id,
                seller: i.seller,
                product: i.product,
                quantity: i.quantity,
                unit_price: i.unit_price,
                freight_value: i.freight_value,
                total_amount: i.unit_price * i.quantity,
            })
            .collect();
        let total_amount: Money = order_items.iter().map(|i| i.total_amount).sum();
        let total_freight: Money = order_items
            .iter()
            .map(|i| i.freight_value * i.quantity)
            .sum();
        let order = Order {
            id,
            customer: self.customer,
            status: OrderStatus::Invoiced,
            invoice: format!("INV-{}-{}", self.customer.0, seq),
            items: order_items,
            total_amount,
            total_freight,
            placed_at: at,
            updated_at: at,
        };
        self.orders.insert(id, order.clone());
        Ok(order)
    }

    /// Applies a status transition; terminal states are sticky.
    pub fn set_status(&mut self, id: OrderId, status: OrderStatus, at: EventTime) -> OmResult<()> {
        let order = self
            .orders
            .get_mut(&id)
            .ok_or_else(|| OmError::NotFound(format!("{id}")))?;
        if order.status.is_terminal() {
            return Err(OmError::Conflict(format!(
                "{id} already terminal ({:?})",
                order.status
            )));
        }
        order.status = status;
        order.updated_at = at;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_common::ids::{ProductId, SellerId};

    fn item(product: u64, qty: u32, cents: i64) -> CartItem {
        CartItem {
            seller: SellerId(3),
            product: ProductId(product),
            quantity: qty,
            unit_price: Money::from_cents(cents),
            freight_value: Money::from_cents(10),
            product_version: 0,
        }
    }

    #[test]
    fn order_ids_are_globally_unique_across_customers() {
        let mut a = OrderService::new(CustomerId(1));
        let mut b = OrderService::new(CustomerId(2));
        let o1 = a.create_order(&[item(1, 1, 100)], EventTime(1)).unwrap();
        let o2 = b.create_order(&[item(1, 1, 100)], EventTime(1)).unwrap();
        let o3 = a.create_order(&[item(1, 1, 100)], EventTime(2)).unwrap();
        assert_ne!(o1.id, o2.id);
        assert_ne!(o1.id, o3.id);
        assert_eq!(o1.invoice, "INV-1-0");
        assert_eq!(o3.invoice, "INV-1-1");
        assert_eq!(customer_of_order(o2.id), CustomerId(2));
        assert_eq!(customer_of_order(o3.id), CustomerId(1));
    }

    #[test]
    fn totals_include_quantity_and_freight() {
        let mut svc = OrderService::new(CustomerId(1));
        let order = svc
            .create_order(&[item(1, 2, 100), item(2, 1, 50)], EventTime(1))
            .unwrap();
        assert_eq!(order.total_amount, Money::from_cents(250));
        assert_eq!(order.total_freight, Money::from_cents(30));
        assert_eq!(order.total_invoice(), Money::from_cents(280));
        assert_eq!(order.status, OrderStatus::Invoiced);
    }

    #[test]
    fn empty_confirmation_is_rejected() {
        let mut svc = OrderService::new(CustomerId(1));
        assert_eq!(
            svc.create_order(&[], EventTime(1)).unwrap_err().label(),
            "rejected"
        );
    }

    #[test]
    fn assembly_collects_answers_until_complete() {
        let mut svc = OrderService::new(CustomerId(1));
        let tid = TransactionId(9);
        svc.begin_assembly(tid, 3, EventTime(1));
        assert!(svc.record_stock_answer(tid, item(1, 1, 100), true).is_none());
        assert!(svc.record_stock_answer(tid, item(2, 1, 100), false).is_none());
        assert_eq!(svc.stuck_assemblies(), 1);
        let done = svc.record_stock_answer(tid, item(3, 1, 100), true).unwrap();
        assert_eq!(done.confirmed.len(), 2);
        assert_eq!(done.rejected.len(), 1);
        assert_eq!(svc.stuck_assemblies(), 0);
    }

    #[test]
    fn answers_for_unknown_tid_are_ignored() {
        let mut svc = OrderService::new(CustomerId(1));
        assert!(svc
            .record_stock_answer(TransactionId(1), item(1, 1, 100), true)
            .is_none());
    }

    #[test]
    fn status_transitions_and_terminal_stickiness() {
        let mut svc = OrderService::new(CustomerId(1));
        let order = svc.create_order(&[item(1, 1, 100)], EventTime(1)).unwrap();
        svc.set_status(order.id, OrderStatus::Paid, EventTime(2)).unwrap();
        svc.set_status(order.id, OrderStatus::InTransit, EventTime(3)).unwrap();
        svc.set_status(order.id, OrderStatus::Delivered, EventTime(4)).unwrap();
        let err = svc
            .set_status(order.id, OrderStatus::Paid, EventTime(5))
            .unwrap_err();
        assert_eq!(err.label(), "conflict");
        assert_eq!(
            svc.set_status(OrderId(999), OrderStatus::Paid, EventTime(5))
                .unwrap_err()
                .label(),
            "not_found"
        );
    }
}
