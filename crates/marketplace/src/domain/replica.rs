//! The Product→Cart replica: the cart side's view of product prices
//! (paper §II: "we define different correctness semantics for Product
//! replication to Cart, including eventual and causal replication").

use crate::api::CheckoutItem;
use om_common::entity::{CartItem, Product};
use om_common::Money;
use serde::{Deserialize, Serialize};

/// Replicated view of one product, as stored on the cart side.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProductReplica {
    pub price: Money,
    pub freight_value: Money,
    pub version: u64,
    pub active: bool,
}

impl ProductReplica {
    pub fn new(price: Money, freight_value: Money) -> Self {
        Self {
            price,
            freight_value,
            version: 0,
            active: true,
        }
    }

    /// Applies a replicated update with last-writer-wins version fencing.
    /// Returns whether the update was applied (false = stale, dropped).
    pub fn apply_update(&mut self, price: Money, version: u64) -> bool {
        if version > self.version {
            self.price = price;
            self.version = version;
            true
        } else {
            false
        }
    }

    /// Applies a replicated deletion (version-fenced).
    pub fn apply_delete(&mut self, version: u64) -> bool {
        if version > self.version {
            self.active = false;
            self.version = version;
            true
        } else {
            false
        }
    }

    /// The lookup tuple used by checkout reconciliation.
    pub fn as_lookup(&self) -> (Money, u64, bool) {
        (self.price, self.version, self.active)
    }

    /// The cart line for `item`, priced at this replica's offer.
    pub fn cart_line(&self, item: &CheckoutItem) -> CartItem {
        CartItem {
            seller: item.seller,
            product: item.product,
            quantity: item.quantity,
            unit_price: self.price,
            freight_value: self.freight_value,
            product_version: self.version,
        }
    }
}

impl From<&Product> for ProductReplica {
    fn from(product: &Product) -> Self {
        Self {
            price: product.price,
            freight_value: product.freight_value,
            version: product.version,
            active: product.active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_fencing() {
        let mut r = ProductReplica::new(Money::from_cents(100), Money::ZERO);
        assert!(r.apply_update(Money::from_cents(120), 2));
        assert!(!r.apply_update(Money::from_cents(90), 1), "stale dropped");
        assert_eq!(r.price, Money::from_cents(120));
        assert!(!r.apply_delete(2));
        assert!(r.active);
        assert!(r.apply_delete(3));
        assert!(!r.active);
        assert_eq!(r.as_lookup(), (Money::from_cents(120), 3, false));
    }
}
