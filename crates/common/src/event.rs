//! Payloads the checkout workflow carries between services.
//!
//! Each binding defines its own message vocabulary (grain messages,
//! dataflow messages); the order lines that travel from Order to Payment
//! and Shipment are the one payload they share.

use crate::ids::*;
use crate::money::Money;
use serde::{Deserialize, Serialize};

/// A compact order line reference carried in downstream events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderLineRef {
    pub seller: SellerId,
    pub product: ProductId,
    pub quantity: u32,
    pub total_amount: Money,
    pub freight_value: Money,
}
