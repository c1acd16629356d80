//! Grain message and reply vocabulary shared by the actor bindings
//! (Eventual and Transactional/Customized).
//!
//! The workflow itself travels as [`Msg::Flow`]: each grain runs its
//! service's [`crate::domain::flow::Step`] on it. Beside it, the grains
//! answer the clients' queries, the product ingest and the transactional
//! surface. One uniform enum pair keeps the actor runtime monomorphic;
//! each grain kind handles its own variants and answers `Reply::Err` for
//! foreign ones (which would indicate a routing bug and is asserted
//! against in tests).

use om_common::entity::{CartItem, Order};
use om_common::entity::{Customer, OrderEntry, OrderStatus, Payment, PaymentMethod, Product, Seller};
use om_common::event::OrderLineRef;
use om_common::ids::*;
use om_common::time::EventTime;
use om_common::{Money, OmError};

use crate::api::{PackageSnapshot, StockSnapshot};
use crate::domain::{flow, ProductReplica};

/// Messages understood by the marketplace grains.
#[derive(Debug, Clone)]
pub enum Msg {
    /// A message of the marketplace workflow, run through the receiving
    /// grain's step.
    Flow(flow::Msg),

    // ---- product grain (key = product id) ------------------------------
    /// Product ingest. The client ingests the cart-side replica with a
    /// call of its own (`Flow(ReplicaIngest)`), so the replica exists
    /// when ingestion returns, faults or not.
    ProductIngest(Product),
    ProductGet,

    // ---- replica grain (key = product id, cart-side view) --------------
    ReplicaGet,

    // ---- stock grain (key = product id) ---------------------------------
    StockGet,

    // ---- cart grain (key = customer id) ---------------------------------
    /// Takes the sealed items for a client-coordinated checkout
    /// (transactional path) without fanning out events.
    CartBeginCheckout,
    CartFinishCheckout,
    CartAbortCheckout,

    // ---- order grain (key = customer id) --------------------------------
    OrderGetAll,
    /// Fetches one order by id.
    OrderGet(OrderId),
    OrderStuckAssemblies,

    // ---- payment grain (key = customer id) -------------------------------
    PaymentGetAll,

    // ---- shipment grain (key = seller id) --------------------------------
    ShipOldest,
    ShipGetPackages,

    // ---- seller grain (key = seller id) ----------------------------------
    SellerGetAggregate,
    SellerGetEntries,
    SellerGetProfile,

    // ---- customer grain (key = customer id) -------------------------------
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_ok_propagates_errors() {
        assert!(Reply::Ok.ok().is_ok());
        assert!(Reply::Count(3).ok().is_ok());
        let e = Reply::Err(OmError::Rejected("x".into()));
        assert_eq!(e.ok().unwrap_err().label(), "rejected");
    }
}
