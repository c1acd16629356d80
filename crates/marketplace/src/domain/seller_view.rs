//! Seller microservice state: running statistics plus the **continuous
//! query** behind the seller dashboard (paper §II: "the first is a
//! continuous query that computes the financial amount of orders in
//! progress by the seller, and the second returns the tuples used to
//! compute the first").
//!
//! The aggregate is maintained *incrementally* from order-entry events —
//! the entries list is maintained independently. On platforms without
//! consistent cross-state querying, a dashboard that reads both can
//! observe them out of sync; the auditor counts those torn reads.

use om_common::entity::{OrderEntry, OrderStatus, Seller, SellerDashboard};
use om_common::ids::{OrderId, SellerId};
use om_common::Money;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-seller state: profile stats + the dashboard's continuous aggregate
/// and entry set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SellerView {
    pub seller: Seller,
    /// Continuous aggregate: financial amount of in-progress orders.
    pub in_progress_amount: Money,
    pub in_progress_count: u64,
    /// The tuples behind the aggregate, keyed by (order, product). The
    /// bindings persist the view row-keyed (`domain::rows`): the view with
    /// this map empty is the header, and each order's entries are an entry
    /// page.
    pub entries: BTreeMap<(OrderId, u64), OrderEntry>,
}

impl SellerView {
    pub fn new(seller: Seller) -> Self {
        Self {
            seller,
            in_progress_amount: Money::ZERO,
            in_progress_count: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Records a new order entry (checkout placed). Every entry counts
    /// in `order_entry_count`; only an in-progress one joins the
    /// dashboard, so an entry that arrives already terminal (a declined
    /// payment's) ends where an invoiced entry retired by that status
    /// would.
    pub fn add_entry(&mut self, entry: OrderEntry) {
        self.seller.order_entry_count += 1;
        if entry.status.in_progress() {
            self.in_progress_amount += entry.total_amount;
            self.in_progress_count += 1;
            self.entries.insert((entry.order, entry.product.0), entry);
        }
    }

    /// Applies an order status change; terminal statuses retire entries
    /// from the aggregate. Delivered orders also update revenue.
    pub fn apply_status(&mut self, order: OrderId, status: OrderStatus) {
        let keys: Vec<(OrderId, u64)> = self
            .entries
            .range((order, 0)..=(order, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            if status.in_progress() {
                if let Some(e) = self.entries.get_mut(&key) {
                    e.status = status;
                }
            } else {
                if let Some(e) = self.entries.remove(&key) {
                    self.in_progress_amount -= e.total_amount;
                    self.in_progress_count = self.in_progress_count.saturating_sub(1);
                    if status == OrderStatus::Delivered {
                        self.seller.revenue += e.total_amount;
                        self.seller.delivered_package_count += 1;
                    }
                }
            }
        }
    }

    /// `order`'s entries, by product.
    pub fn order_entries(&self, order: OrderId) -> impl Iterator<Item = &OrderEntry> {
        self.entries
            .range((order, 0)..=(order, u64::MAX))
            .map(|(_, e)| e)
    }

    /// The dashboard assembled **from this view alone** (both queries over
    /// one state — consistent by construction; bindings that answer the
    /// two queries from different components may still produce torn
    /// dashboards).
    pub fn dashboard(&self) -> SellerDashboard {
        SellerDashboard {
            seller: self.seller.id,
            in_progress_amount: self.in_progress_amount,
            in_progress_count: self.in_progress_count,
            entries: self.entries.values().cloned().collect(),
        }
    }

    /// The aggregate half only (continuous query).
    pub fn aggregate(&self) -> (Money, u64) {
        (self.in_progress_amount, self.in_progress_count)
    }

    /// The entries half only (detail query).
    pub fn entry_list(&self) -> Vec<OrderEntry> {
        self.entries.values().cloned().collect()
    }
}

/// Convenience constructor for tests and data generation.
pub fn seller_named(id: SellerId, name: &str) -> Seller {
    Seller::new(id, name.to_string(), format!("city-{}", id.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_common::ids::ProductId;

    fn entry(order: u64, product: u64, cents: i64) -> OrderEntry {
        OrderEntry {
            order: OrderId(order),
            seller: SellerId(1),
            product: ProductId(product),
            quantity: 1,
            total_amount: Money::from_cents(cents),
            status: OrderStatus::Invoiced,
        }
    }

    #[test]
    fn codec_roundtrips_with_populated_entries() {
        let mut v = SellerView::new(seller_named(SellerId(1), "s"));
        v.add_entry(entry(1, 1, 100));
        v.add_entry(entry(2, 7, 50));
        let bytes = om_common::codec::to_bytes(&v).expect("encodes with non-empty entries");
        let back: SellerView = om_common::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.in_progress_amount, v.in_progress_amount);
        assert_eq!(
            back.entries.keys().copied().collect::<Vec<_>>(),
            vec![(OrderId(1), 1), (OrderId(2), 7)]
        );
        assert_eq!(back.dashboard(), v.dashboard());
    }

    #[test]
    fn aggregate_tracks_entries() {
        let mut v = SellerView::new(seller_named(SellerId(1), "s"));
        v.add_entry(entry(1, 1, 100));
        v.add_entry(entry(1, 2, 50));
        v.add_entry(entry(2, 1, 25));
        assert_eq!(v.aggregate(), (Money::from_cents(175), 3));
        let d = v.dashboard();
        assert!(d.is_snapshot_consistent());
        assert_eq!(d.entries.len(), 3);
    }

    #[test]
    fn status_progression_updates_entries_in_place() {
        let mut v = SellerView::new(seller_named(SellerId(1), "s"));
        v.add_entry(entry(1, 1, 100));
        v.apply_status(OrderId(1), OrderStatus::Paid);
        assert_eq!(v.entries.len(), 1);
        assert_eq!(
            v.entries.values().next().unwrap().status,
            OrderStatus::Paid
        );
        assert_eq!(v.aggregate().0, Money::from_cents(100));
    }

    #[test]
    fn terminal_status_retires_entries_and_books_revenue() {
        let mut v = SellerView::new(seller_named(SellerId(1), "s"));
        v.add_entry(entry(1, 1, 100));
        v.add_entry(entry(2, 1, 60));
        v.apply_status(OrderId(1), OrderStatus::Delivered);
        assert_eq!(v.aggregate(), (Money::from_cents(60), 1));
        assert_eq!(v.seller.revenue, Money::from_cents(100));
        v.apply_status(OrderId(2), OrderStatus::Canceled);
        assert_eq!(v.aggregate(), (Money::ZERO, 0));
        assert_eq!(v.seller.revenue, Money::from_cents(100), "canceled != revenue");
    }

    #[test]
    fn a_terminal_entry_is_counted_but_stays_off_the_dashboard() {
        let mut v = SellerView::new(seller_named(SellerId(1), "s"));
        let mut declined = entry(1, 1, 100);
        declined.status = OrderStatus::PaymentFailed;
        v.add_entry(declined);
        assert_eq!(v.aggregate(), (Money::ZERO, 0));
        assert!(v.entries.is_empty());
        assert_eq!(v.seller.order_entry_count, 1);
    }

    #[test]
    fn terminal_and_in_progress_entries_mix_on_one_dashboard() {
        let mut v = SellerView::new(seller_named(SellerId(1), "s"));
        v.add_entry(entry(1, 1, 100));
        let mut declined = entry(2, 1, 40);
        declined.status = OrderStatus::PaymentFailed;
        v.add_entry(declined);
        v.add_entry(entry(3, 2, 25));
        assert_eq!(v.aggregate(), (Money::from_cents(125), 2));
        assert_eq!(
            v.entries.keys().copied().collect::<Vec<_>>(),
            vec![(OrderId(1), 1), (OrderId(3), 2)]
        );
        assert_eq!(v.seller.order_entry_count, 3);
        assert!(v.dashboard().is_snapshot_consistent());
        // A status for the declined order finds nothing to retire.
        v.apply_status(OrderId(2), OrderStatus::Canceled);
        assert_eq!(v.aggregate(), (Money::from_cents(125), 2));
    }

    #[test]
    fn unknown_order_status_is_noop() {
        let mut v = SellerView::new(seller_named(SellerId(1), "s"));
        v.add_entry(entry(1, 1, 100));
        v.apply_status(OrderId(99), OrderStatus::Delivered);
        assert_eq!(v.aggregate(), (Money::from_cents(100), 1));
    }
}
