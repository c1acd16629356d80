//! The largest numbers a client may send.
//!
//! The gateway answers `400` for a request body or path that carries a
//! number past these, and the cart and the stock refuse a sum past them,
//! so no id the workflow derives and no amount it adds up can overflow.

use crate::money::Money;

/// Largest customer, seller or product id. Order and payment ids are a
/// customer id × 10⁶ plus a sequence, package ids a seller id × 10⁷ plus
/// a sequence: from ids up to 10¹² both stay inside `u64`.
pub const MAX_ID: u64 = 1_000_000_000_000;

/// Most units of one product a cart line holds, summed over its adds.
pub const MAX_QUANTITY: u32 = 1_000_000;

/// Largest price or freight value, in cents: 10⁷ a unit. A cart line
/// then totals at most 10¹⁵ cents, and thousands of them fit in `i64`.
pub const MAX_PRICE: Money = Money::from_cents(1_000_000_000);

/// Largest ingested counter (orders, packages, payments, a product's
/// version); each event adds one to it.
pub const MAX_COUNT: u64 = 1 << 53;

/// Largest ingested running amount (a seller's revenue, a customer's
/// spending), either sign, in cents.
pub const MAX_AMOUNT: Money = Money::from_cents(1 << 53);

/// Whether `amount`, of either sign, is at most `max` from zero.
pub fn within(amount: Money, max: Money) -> bool {
    amount.cents().unsigned_abs() <= max.cents().unsigned_abs()
}
