//! The correctness audit: what the responses promised, checked against
//! the platform's state after `quiesce()`.

use crate::load::{Client, Sample};
use crate::stream::{Op, INITIAL_STOCK, PRODUCTS};
use om_common::entity::SellerDashboard;
use om_marketplace::api::CheckoutOutcome;
use om_marketplace::MarketplacePlatform;
use std::collections::HashSet;

/// What the acknowledged responses of a run commit the platform to.
#[derive(Default)]
pub struct Ledger {
    /// Order ids returned by 2xx checkouts.
    pub acked_orders: Vec<u64>,
    pub acked_checkouts: u64,
    /// Units bought by 2xx checkouts, per product.
    pub sold: Vec<u64>,
    pub dashboards_checked: u64,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            sold: vec![0; PRODUCTS as usize],
            ..Self::default()
        }
    }

    /// Adds a phase's samples, sent by `clients`. Problems that show in
    /// the responses alone (an unreadable acknowledgement, a torn
    /// dashboard) are pushed to `problems`.
    pub fn add(
        &mut self,
        samples: &[Sample],
        clients: &[Client],
        check_dashboards: bool,
        problems: &mut Vec<String>,
    ) {
        for s in samples {
            let Some(response) = &s.response else {
                continue;
            };
            match s.op {
                Op::Checkout if s.status == 200 => match response.json_body::<CheckoutOutcome>() {
                    Ok(CheckoutOutcome::Placed { order, .. }) => {
                        self.acked_checkouts += 1;
                        self.acked_orders.extend(order.map(|o| o.0));
                        for (product, quantity) in &clients[s.client].stream.carts[s.cart] {
                            self.sold[*product as usize] += *quantity as u64;
                        }
                    }
                    other => problems.push(format!("checkout answered 200 with {other:?}")),
                },
                Op::Dashboard if check_dashboards && s.status == 200 => {
                    self.dashboards_checked += 1;
                    match response.json_body::<SellerDashboard>() {
                        Ok(d) if d.is_snapshot_consistent() => {}
                        Ok(d) => problems.push(format!(
                            "torn dashboard of seller {}: aggregate {:?} over {} rows, count {}",
                            d.seller.0,
                            d.in_progress_amount,
                            d.entries.len(),
                            d.in_progress_count
                        )),
                        Err(e) => problems.push(format!("unreadable dashboard: {e}")),
                    }
                }
                _ => {}
            }
        }
    }
}

/// Checks `platform` (quiesced here) against the ledger: every
/// acknowledged order exists, stock is conserved, and each product sold
/// exactly what the acknowledged checkouts bought.
pub fn check(
    platform: &dyn MarketplacePlatform,
    ledger: &Ledger,
    which: &str,
    problems: &mut Vec<String>,
) {
    platform.quiesce();
    let snapshot = match platform.snapshot() {
        Ok(s) => s,
        Err(e) => {
            problems.push(format!("{which}: snapshot failed: {e}"));
            return;
        }
    };
    let orders: HashSet<u64> = snapshot.orders.iter().map(|o| o.id.0).collect();
    let missing = ledger
        .acked_orders
        .iter()
        .filter(|id| !orders.contains(id))
        .count();
    if missing > 0 {
        problems.push(format!(
            "{which}: {missing} of {} acknowledged orders are missing from the snapshot",
            ledger.acked_orders.len()
        ));
    }
    if (orders.len() as u64) < ledger.acked_checkouts {
        problems.push(format!(
            "{which}: {} orders in the snapshot, {} checkouts acknowledged",
            orders.len(),
            ledger.acked_checkouts
        ));
    }
    if snapshot.stock.len() as u64 != PRODUCTS {
        problems.push(format!(
            "{which}: {} stock items in the snapshot, {PRODUCTS} ingested",
            snapshot.stock.len()
        ));
    }
    for stock in &snapshot.stock {
        let product = stock.item.key.product.0;
        let remaining = stock.item.qty_available as u64 + stock.item.qty_reserved as u64;
        if INITIAL_STOCK as u64 - stock.qty_sold != remaining {
            problems.push(format!(
                "{which}: stock of product {product} not conserved: {INITIAL_STOCK} - {} sold != {remaining} remaining",
                stock.qty_sold
            ));
        }
        let expected = ledger.sold.get(product as usize).copied().unwrap_or(0);
        if stock.qty_sold != expected {
            problems.push(format!(
                "{which}: product {product} sold {} units, acknowledged checkouts bought {expected}",
                stock.qty_sold
            ));
        }
    }
}
