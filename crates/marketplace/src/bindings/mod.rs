//! The four platform bindings of the Online Marketplace (paper §III).
//!
//! | module | paper implementation |
//! |---|---|
//! | [`eventual`] | Orleans Eventual |
//! | [`transactional`] | Orleans Transactions |
//! | [`dataflow`] | Apache Flink Statefun |
//! | [`customized`] | Customized Orleans (Fig. 1) |
//!
//! The two actor-based bindings share one grain message vocabulary
//! ([`actor_msg`]) and grain kinds; they differ in *how* the checkout
//! workflow traverses the grains (asynchronous event cascade vs
//! client-coordinated 2PC) — which is precisely the axis the paper
//! evaluates.

pub mod actor_core;
pub mod actor_grains;
pub mod actor_msg;
pub mod customized;
pub mod dataflow;
pub mod eventual;
pub mod transactional;

// Row names of row-keyed state, shared by the dataflow functions and the
// actor grains. An entity's header (or its whole state, when it does not
// grow) is the row with the empty name; a growing aggregate adds one row
// per entity under a tag byte followed by big-endian ids, so a prefix scan
// of a tag returns rows in id order and a change touches only the rows of
// the entities it names.
pub(crate) const ROOT: &[u8] = b"";
/// Seller: one row per `(order, product)` dashboard entry.
pub(crate) const ENTRY: u8 = b'e';

pub(crate) fn row(tag: u8, ids: &[u64]) -> Vec<u8> {
    let mut name = Vec::with_capacity(1 + 8 * ids.len());
    name.push(tag);
    for id in ids {
        name.extend_from_slice(&id.to_be_bytes());
    }
    name
}

/// Grain kind names shared by the actor bindings.
pub mod kinds {
    pub const PRODUCT: &str = "product";
    pub const REPLICA: &str = "replica";
    pub const STOCK: &str = "stock";
    pub const CART: &str = "cart";
    pub const ORDER: &str = "order";
    pub const PAYMENT: &str = "payment";
    pub const SHIPMENT: &str = "shipment";
    pub const SELLER: &str = "seller";
    pub const CUSTOMER: &str = "customer";
}
