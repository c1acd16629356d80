//! Platform-agnostic service state machines.
//!
//! Each module holds the state and transition logic of one microservice.
//! The four platform bindings wrap these structs in grains, stateful
//! functions or transactional participants — the *business rules* are
//! written exactly once, so behavioural differences measured by the
//! benchmark stem from the platforms, not from divergent logic. The
//! [`flow`] module is the one workflow the event-driven bindings run over
//! these services, and [`rows`] the one row format the stateful runtimes
//! store them in.

pub mod cart;
pub mod checkout;
pub mod flow;
pub mod order;
pub mod payment;
pub mod replica;
pub mod rows;
pub mod seller_view;
pub mod shipment;
pub mod stock;

pub use cart::CartService;
pub use checkout::{reconcile_prices, PriceSource};
pub use order::OrderService;
pub use payment::{payment_decision, PaymentService};
pub use replica::ProductReplica;
pub use seller_view::SellerView;
pub use shipment::ShipmentService;
pub use stock::StockService;
