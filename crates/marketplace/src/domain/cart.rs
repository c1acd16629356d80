//! Cart microservice state: per-customer cart management and checkout
//! assembly (paper §II: "Cart is responsible for managing individual cart
//! instances for each customer").

use om_common::entity::{Cart, CartItem, CartStatus};
use om_common::ids::{CustomerId, ProductId};
use om_common::{OmError, OmResult};
use serde::{Deserialize, Serialize};

/// One customer's cart service state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CartService {
    pub cart: Cart,
    /// Checkouts processed (diagnostics).
    pub checkout_count: u64,
}

impl CartService {
    pub fn new(customer: CustomerId) -> Self {
        Self {
            cart: Cart::new(customer),
            checkout_count: 0,
        }
    }

    /// Adds an item to the open cart.
    pub fn add_item(&mut self, item: CartItem) -> OmResult<()> {
        if self.cart.status != CartStatus::Open {
            return Err(OmError::Conflict(format!(
                "cart of {} is checking out",
                self.cart.customer
            )));
        }
        self.cart.add_item(item)
    }

    /// Removes a product's line.
    pub fn remove_item(&mut self, product: ProductId) -> Option<CartItem> {
        self.cart.remove_item(product)
    }

    /// Applies a replicated price update to matching open-cart lines
    /// (the Product→Cart replication target, paper §II *Price Update*).
    /// Stale versions are ignored. Returns whether a line changed.
    pub fn apply_price_update(
        &mut self,
        product: ProductId,
        price: om_common::Money,
        version: u64,
    ) -> bool {
        let mut changed = false;
        for item in &mut self.cart.items {
            if item.product == product && item.product_version < version {
                item.unit_price = price;
                item.product_version = version;
                changed = true;
            }
        }
        changed
    }

    /// Removes deleted-product lines (paper §II *Product Delete*).
    pub fn apply_product_delete(&mut self, product: ProductId) -> bool {
        let before = self.cart.items.len();
        self.cart.items.retain(|i| i.product != product);
        before != self.cart.items.len()
    }

    /// Begins checkout: seals the cart and takes its items.
    pub fn begin_checkout(&mut self) -> OmResult<Vec<CartItem>> {
        if self.cart.status != CartStatus::Open {
            return Err(OmError::Conflict("checkout already in flight".into()));
        }
        if self.cart.is_empty() {
            return Err(OmError::Rejected("cart is empty".into()));
        }
        self.cart.status = CartStatus::CheckoutInFlight;
        Ok(self.cart.items.clone())
    }

    /// Finishes checkout (either outcome): empties and reopens the cart.
    pub fn finish_checkout(&mut self) {
        self.cart.items.clear();
        self.cart.status = CartStatus::Open;
        self.checkout_count += 1;
    }

    /// Aborts checkout, restoring the cart to open with items intact so
    /// the customer can retry.
    pub fn abort_checkout(&mut self) {
        self.cart.status = CartStatus::Open;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_common::ids::SellerId;
    use om_common::Money;

    fn item(product: u64, version: u64) -> CartItem {
        CartItem {
            seller: SellerId(1),
            product: ProductId(product),
            quantity: 1,
            unit_price: Money::from_cents(100),
            freight_value: Money::ZERO,
            product_version: version,
        }
    }

    #[test]
    fn add_and_checkout_lifecycle() {
        let mut svc = CartService::new(CustomerId(1));
        svc.add_item(item(1, 0)).unwrap();
        svc.add_item(item(2, 0)).unwrap();
        let items = svc.begin_checkout().unwrap();
        assert_eq!(items.len(), 2);
        // Cart is sealed now.
        assert!(svc.add_item(item(3, 0)).is_err());
        assert!(svc.begin_checkout().is_err());
        svc.finish_checkout();
        assert!(svc.cart.is_empty());
        assert_eq!(svc.checkout_count, 1);
        svc.add_item(item(3, 0)).unwrap();
    }

    #[test]
    fn empty_cart_cannot_check_out() {
        let mut svc = CartService::new(CustomerId(1));
        assert_eq!(svc.begin_checkout().unwrap_err().label(), "rejected");
    }

    #[test]
    fn abort_restores_items() {
        let mut svc = CartService::new(CustomerId(1));
        svc.add_item(item(1, 0)).unwrap();
        svc.begin_checkout().unwrap();
        svc.abort_checkout();
        assert_eq!(svc.cart.items.len(), 1);
        assert!(svc.begin_checkout().is_ok());
    }

    #[test]
    fn price_updates_respect_versions() {
        let mut svc = CartService::new(CustomerId(1));
        svc.add_item(item(1, 5)).unwrap();
        assert!(!svc.apply_price_update(ProductId(1), Money::from_cents(200), 5));
        assert!(!svc.apply_price_update(ProductId(1), Money::from_cents(200), 3));
        assert_eq!(svc.cart.items[0].unit_price, Money::from_cents(100));
        assert!(svc.apply_price_update(ProductId(1), Money::from_cents(200), 6));
        assert_eq!(svc.cart.items[0].unit_price, Money::from_cents(200));
        assert_eq!(svc.cart.items[0].product_version, 6);
    }

    #[test]
    fn product_delete_removes_lines() {
        let mut svc = CartService::new(CustomerId(1));
        svc.add_item(item(1, 0)).unwrap();
        svc.add_item(item(2, 0)).unwrap();
        assert!(svc.apply_product_delete(ProductId(1)));
        assert!(!svc.apply_product_delete(ProductId(1)));
        assert_eq!(svc.cart.items.len(), 1);
    }
}
