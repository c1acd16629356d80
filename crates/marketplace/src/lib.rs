//! # om-marketplace
//!
//! The **Online Marketplace** benchmark application (paper §II): eight
//! microservices — Cart, Product, Stock, Order, Payment, Shipment,
//! Customer, Seller — implemented once as platform-agnostic state machines
//! ([`domain`]) and bound to four competing data platforms ([`bindings`]),
//! mirroring the paper's §III evaluation matrix:
//!
//! | Binding | Substrate | Guarantees |
//! |---|---|---|
//! | [`bindings::eventual`] | `om-actor` | eventual consistency, async events (may drop/duplicate under fault injection) |
//! | [`bindings::transactional`] | `om-actor` + [`om_actor::tx`] | ACID checkout via conservative 2PL (admission) + 2PC |
//! | [`bindings::dataflow`] | `om-dataflow` | exactly-once event processing |
//! | [`bindings::customized`] | `om-actor` tx + `om-storage` | + snapshot-consistent dashboard, monotonic replica reads, audit count |
//!
//! All bindings implement [`api::MarketplacePlatform`], the uniform surface
//! the benchmark driver (`om-driver`) submits the five business
//! transactions through: Customer Checkout, Price Update, Product Delete,
//! Update Delivery and Seller Dashboard.

pub mod api;
pub mod bindings;
pub mod domain;
pub mod factory;

pub use api::{
    CheckoutOutcome, CheckoutRequest, MarketSnapshot, MarketplacePlatform, PlatformKind,
    UnwedgeOutcome,
};
pub use factory::{build_platform, PlatformSpec};
pub use bindings::{
    customized::CustomizedPlatform, dataflow::DataflowPlatform, eventual::EventualPlatform,
    transactional::TransactionalPlatform,
};
