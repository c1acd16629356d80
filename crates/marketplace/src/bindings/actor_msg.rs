//! Grain message and reply vocabulary shared by the actor bindings
//! (Eventual and Transactional/Customized).
//!
//! One uniform enum pair keeps the actor runtime monomorphic; each grain
//! kind handles its own variants and answers `Reply::Err` for foreign
//! ones (which would indicate a routing bug and is asserted against in
//! tests).

use om_common::entity::{
    Customer, OrderEntry, OrderStatus, Payment, PaymentMethod, Product, Seller,
};
use om_common::entity::{CartItem, Order};
use om_common::event::OrderLineRef;
use om_common::ids::*;
use om_common::time::EventTime;
use om_common::{Money, OmError};

use crate::api::{PackageSnapshot, StockSnapshot};
use crate::domain::ProductReplica;

/// Messages understood by the marketplace grains.
#[derive(Debug, Clone)]
pub enum Msg {
    // ---- product grain (key = product id) ------------------------------
    ProductIngest(Product),
    ProductGet,
    /// Seller-issued price update; the grain bumps its version and emits a
    /// replication event toward the cart-side replica.
    ProductPriceUpdate(Money),
    /// Seller-issued delete; emits replication events to replica + stock.
    ProductDelete,

    // ---- replica grain (key = product id, cart-side view) --------------
    ReplicaIngest(ProductReplica),
    ReplicaApplyUpdate { price: Money, version: u64 },
    ReplicaApplyDelete { version: u64 },
    ReplicaGet,

    // ---- stock grain (key = product id) ---------------------------------
    StockIngest { key: StockKey, qty: u32 },
    /// Eventual path: reserve and answer the order grain with an event.
    StockReserveEvent {
        tid: TransactionId,
        customer: CustomerId,
        item: CartItem,
        method: PaymentMethod,
        decline_rate_bp: u32,
    },
    StockConfirm { qty: u32 },
    StockCancel { qty: u32 },
    StockApplyDelete { version: u64 },
    StockGet,

    // ---- cart grain (key = customer id) ---------------------------------
    CartAdd(CartItem),
    /// Eventual path: seal, fan out reservations, finish optimistically.
    CartCheckoutEvent {
        tid: TransactionId,
        method: PaymentMethod,
        decline_rate_bp: u32,
    },
    /// Takes the sealed items for a client-coordinated checkout
    /// (transactional path) without fanning out events.
    CartBeginCheckout,
    CartFinishCheckout,
    CartAbortCheckout,

    // ---- order grain (key = customer id) --------------------------------
    OrderBeginAssembly { tid: TransactionId, expected: usize, at: EventTime },
    OrderStockAnswer {
        tid: TransactionId,
        item: CartItem,
        reserved: bool,
        method: PaymentMethod,
        decline_rate_bp: u32,
    },
    OrderSetStatus { order: OrderId, status: OrderStatus },
    /// `seller` delivered its packages of `order`; the order flips to
    /// Delivered once every seller of its items has.
    OrderPackagesDelivered { order: OrderId, seller: SellerId },
    OrderGetAll,
    /// Fetches one order by id.
    OrderGet(OrderId),
    OrderStuckAssemblies,

    // ---- payment grain (key = customer id) -------------------------------
    PaymentProcessEvent {
        tid: TransactionId,
        order: OrderId,
        customer: CustomerId,
        method: PaymentMethod,
        amount: Money,
        decline_rate_bp: u32,
        lines: Vec<OrderLineRef>,
    },
    PaymentGetAll,

    // ---- shipment grain (key = seller id) --------------------------------
    ShipCreatePackages {
        tid: TransactionId,
        shipment: ShipmentId,
        order: OrderId,
        customer: CustomerId,
        lines: Vec<OrderLineRef>,
    },
    ShipOldest,
    ShipDeliverOldest,
    ShipGetPackages,

    // ---- seller grain (key = seller id) ----------------------------------
    SellerIngest(Seller),
    SellerAddEntry(OrderEntry),
    SellerApplyStatus { order: OrderId, status: OrderStatus },
    SellerGetAggregate,
    SellerGetEntries,
    SellerGetProfile,

    // ---- customer grain (key = customer id) -------------------------------
    CustomerIngest(Customer),
    CustomerPaymentResult { approved: bool, amount: Money },
    CustomerDelivery,
    CustomerGet,

    // ---- transactional facet (grains wrapping TxParticipant) -------------
    /// Acquires the write lock and applies `op` to the staged state.
    TxStockReserve { tid: TransactionId, qty: u32 },
    TxStockConfirm { tid: TransactionId, qty: u32 },
    TxStockCancel { tid: TransactionId, qty: u32 },
    TxOrderCreate { tid: TransactionId, items: Vec<CartItem>, at: EventTime },
    TxOrderSetStatus { tid: TransactionId, order: OrderId, status: OrderStatus },
    TxPaymentProcess {
        tid: TransactionId,
        order: OrderId,
        method: PaymentMethod,
        amount: Money,
        decline_rate_bp: u32,
    },
    TxSellerAddEntry { tid: TransactionId, entry: OrderEntry },
    TxSellerApplyStatus { tid: TransactionId, order: OrderId, status: OrderStatus },
    TxCustomerPaymentResult { tid: TransactionId, approved: bool, amount: Money },
    TxShipCreatePackages {
        tid: TransactionId,
        shipment: ShipmentId,
        order: OrderId,
        customer: CustomerId,
        lines: Vec<OrderLineRef>,
    },
    TxShipDeliverOldest { tid: TransactionId },
    /// 2PC surface.
    TxPrepare { tid: TransactionId },
    TxCommit { tid: TransactionId },
    TxAbort { tid: TransactionId },
}

/// Replies from marketplace grains.
#[derive(Debug, Clone)]
pub enum Reply {
    Ok,
    Bool(bool),
    Count(u64),
    Product(Option<Product>),
    Replica(Option<ProductReplica>),
    Stock(Option<StockSnapshot>),
    Items(Vec<CartItem>),
    Order(Order),
    Orders(Vec<Order>),
    Payment(Payment),
    Payments(Vec<Payment>),
    Packages(Vec<PackageSnapshot>),
    OldestUndelivered(Option<EventTime>),
    Delivered { order: Option<OrderId>, packages: u32 },
    Entries(Vec<OrderEntry>),
    Aggregate { amount: Money, count: u64 },
    SellerProfile(Option<Seller>),
    CustomerProfile(Option<Customer>),
    Vote(bool),
    Err(OmError),
}

impl Reply {
    /// Unwraps an `Ok`-like reply, propagating `Reply::Err`.
    pub fn ok(self) -> Result<(), OmError> {
        match self {
            Reply::Err(e) => Err(e),
            _ => Ok(()),
        }
    }
}

/// Basis points helper: the driver's decline rate (f64) travels through
/// messages as integer basis points to keep `Msg: Eq`-free but hashable
/// debugging simple and avoid float drift.
pub fn to_basis_points(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * 10_000.0).round() as u32
}

/// Inverse of [`to_basis_points`].
pub fn from_basis_points(bp: u32) -> f64 {
    bp as f64 / 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_point_roundtrip() {
        for rate in [0.0, 0.05, 0.5, 1.0] {
            assert!((from_basis_points(to_basis_points(rate)) - rate).abs() < 1e-9);
        }
        assert_eq!(to_basis_points(-1.0), 0);
        assert_eq!(to_basis_points(2.0), 10_000);
    }

    #[test]
    fn reply_ok_propagates_errors() {
        assert!(Reply::Ok.ok().is_ok());
        assert!(Reply::Count(3).ok().is_ok());
        let e = Reply::Err(OmError::Rejected("x".into()));
        assert_eq!(e.ok().unwrap_err().label(), "rejected");
    }
}
