//! The one rule for a workflow message at a grain a transaction holds,
//! on the Transactional binding: an event waits in the grain's queue and
//! runs, in arrival order, when the holder's commit or abort releases the
//! lock; a call is answered `Conflict` and does not wait.
//!
//! Each test holds a grain by staging a `Tx*` op on it under a tid of its
//! own, as a transaction's phase does, then decides that tid itself.

use om_actor::GrainId;
use om_common::config::BackendKind;
use om_common::entity::{Customer, OrderEntry, OrderStatus, PaymentMethod, Product, Seller};
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId, TransactionId};
use om_common::Money;
use om_marketplace::api::*;
use om_marketplace::bindings::actor_grains::{
    customer_grain, order_grain, seller_grain, stock_grain,
};
use om_marketplace::bindings::actor_msg::{Msg, Reply};
use om_marketplace::domain::flow;
use om_marketplace::{PlatformSpec, TransactionalPlatform};
use om_storage::StateBackend;
use std::sync::Arc;

mod common;
use common::{RecordingBackend, WritePath};

/// A tid no coordinator of these tests hands out.
const HOLDER: TransactionId = TransactionId(1 << 40);
const SELLER: SellerId = SellerId(1);
const CUSTOMER: CustomerId = CustomerId(1);
const PRODUCT: ProductId = ProductId(1);

fn spec() -> PlatformSpec {
    PlatformSpec::new(PlatformKind::Transactional, BackendKind::Eventual).decline_rate(0.0)
}

/// Seller 1, customer 1 and product 1 of seller 1, with stock.
fn ingest(p: &TransactionalPlatform) {
    p.ingest_seller(Seller::new(SELLER, "s1".into(), "city".into())).unwrap();
    p.ingest_customer(Customer::new(CUSTOMER, "c1".into(), "addr".into())).unwrap();
    let product = Product {
        id: PRODUCT,
        seller: SELLER,
        name: "p1".into(),
        category: "c".into(),
        description: String::new(),
        price: Money::from_cents(100),
        freight_value: Money::from_cents(10),
        version: 0,
        active: true,
    };
    p.ingest_product(product, 100).unwrap();
    p.quiesce();
}

fn call(p: &TransactionalPlatform, id: GrainId, msg: Msg) -> Reply {
    p.core().cluster.call(id, msg).unwrap()
}

fn notify(p: &TransactionalPlatform, id: GrainId, msg: flow::Msg) {
    p.core().cluster.notify(id, Msg::Flow(msg));
}

/// Commits or aborts `HOLDER` at `id`, then lets what the release sent
/// on run.
fn decide(p: &TransactionalPlatform, id: GrainId, commit: bool) {
    let tid = HOLDER;
    let msg = if commit { Msg::TxCommit { tid } } else { Msg::TxAbort { tid } };
    assert!(matches!(call(p, id, msg), Reply::Ok));
    p.quiesce();
}

fn deliveries(p: &TransactionalPlatform) -> u64 {
    match call(p, customer_grain(CUSTOMER), Msg::CustomerGet) {
        Reply::CustomerProfile(Some(c)) => c.delivery_count,
        other => panic!("{other:?}"),
    }
}

fn hold_customer(p: &TransactionalPlatform) {
    let stage = Msg::TxCustomerPaymentResult {
        tid: HOLDER,
        approved: true,
        amount: Money::from_cents(1),
    };
    assert!(matches!(call(p, customer_grain(CUSTOMER), stage), Reply::Ok));
}

fn entry(order: u64, status: OrderStatus) -> OrderEntry {
    OrderEntry {
        order: OrderId(order),
        seller: SELLER,
        product: PRODUCT,
        quantity: 1,
        total_amount: Money::from_cents(100),
        status,
    }
}

fn hold_seller(p: &TransactionalPlatform, order: u64) {
    let stage = Msg::TxSellerAddEntry {
        tid: HOLDER,
        entry: entry(order, OrderStatus::Invoiced),
    };
    assert!(matches!(call(p, seller_grain(SELLER), stage), Reply::Ok));
}

/// `(order, status)` of every entry seller 1's grain holds.
fn entries(p: &TransactionalPlatform) -> Vec<(u64, OrderStatus)> {
    match call(p, seller_grain(SELLER), Msg::SellerGetEntries) {
        Reply::Entries(list) => list.iter().map(|e| (e.order.0, e.status)).collect(),
        other => panic!("{other:?}"),
    }
}

#[test]
fn events_at_a_held_customer_wait_and_run_on_commit_and_on_abort() {
    let p = TransactionalPlatform::new(&spec());
    ingest(&p);
    for (commit, count) in [(true, 2), (false, 4)] {
        hold_customer(&p);
        notify(&p, customer_grain(CUSTOMER), flow::Msg::CustomerDelivery);
        notify(&p, customer_grain(CUSTOMER), flow::Msg::CustomerDelivery);
        p.quiesce();
        assert_eq!(deliveries(&p), count - 2, "commit {commit}: applied while held");
        decide(&p, customer_grain(CUSTOMER), commit);
        assert_eq!(deliveries(&p), count, "commit {commit}: lost at the held grain");
    }
}

#[test]
fn a_delivery_at_a_held_order_grain_delivers_the_order_on_release() {
    let p = TransactionalPlatform::new(&spec());
    ingest(&p);
    let item = CheckoutItem {
        seller: SELLER,
        product: PRODUCT,
        quantity: 1,
    };
    p.add_to_cart(CUSTOMER, item).unwrap();
    let request = CheckoutRequest {
        customer: CUSTOMER,
        items: vec![],
        method: PaymentMethod::CreditCard,
    };
    let CheckoutOutcome::Placed { order: Some(order), .. } = p.checkout(request).unwrap() else {
        panic!("checkout not placed");
    };
    let order_g = order_grain(CUSTOMER);
    let status = |p: &TransactionalPlatform| match call(p, order_g, Msg::OrderGetAll) {
        Reply::Orders(orders) => orders.iter().find(|o| o.id == order).map(|o| o.status),
        other => panic!("{other:?}"),
    };
    assert_eq!(status(&p), Some(OrderStatus::InTransit));

    // A checkout by the same customer holds the order grain while the
    // delivery commits and sends `PackagesDelivered` on.
    let stage = Msg::TxOrderSetStatus {
        tid: HOLDER,
        order,
        status: OrderStatus::InTransit,
    };
    assert!(matches!(call(&p, order_g, stage), Reply::Ok));
    assert_eq!(p.update_delivery(10).unwrap(), 1);
    p.quiesce();
    assert_eq!(status(&p), Some(OrderStatus::InTransit), "applied while held");
    assert_eq!(deliveries(&p), 0);

    decide(&p, order_g, false);
    assert_eq!(status(&p), Some(OrderStatus::Delivered));
    assert_eq!(deliveries(&p), 1, "the order's CustomerDelivery");
}

#[test]
fn waiting_events_run_in_arrival_order() {
    let p = TransactionalPlatform::new(&spec());
    ingest(&p);
    hold_seller(&p, 7);
    // Reversed, the status would find no entry and the entry would stay
    // invoiced.
    notify(&p, seller_grain(SELLER), flow::Msg::AddEntry(entry(8, OrderStatus::Invoiced)));
    let status = OrderStatus::InTransit;
    notify(&p, seller_grain(SELLER), flow::Msg::ApplyStatus { order: OrderId(8), status });
    p.quiesce();
    assert_eq!(entries(&p), []);
    decide(&p, seller_grain(SELLER), true);
    assert_eq!(entries(&p), [(7, OrderStatus::Invoiced), (8, status)]);
}

#[test]
fn a_workflow_call_to_a_held_grain_conflicts_and_does_not_wait() {
    let p = TransactionalPlatform::new(&spec());
    ingest(&p);
    hold_customer(&p);
    let reply = call(&p, customer_grain(CUSTOMER), Msg::Flow(flow::Msg::CustomerDelivery));
    match reply {
        Reply::Err(e) => assert_eq!(e.label(), "conflict", "{e}"),
        other => panic!("{other:?}"),
    }
    decide(&p, customer_grain(CUSTOMER), true);
    assert_eq!(deliveries(&p), 0, "the refused call ran later");
}

#[test]
fn a_product_deletion_at_a_held_stock_deactivates_it_on_release() {
    let p = TransactionalPlatform::new(&spec());
    ingest(&p);
    let active = |p: &TransactionalPlatform| match call(p, stock_grain(PRODUCT), Msg::StockGet) {
        Reply::Stock(Some(s)) => s.item.active,
        other => panic!("{other:?}"),
    };
    let stage = Msg::TxStockReserve { tid: HOLDER, qty: 1 };
    assert!(matches!(call(&p, stock_grain(PRODUCT), stage), Reply::Ok));
    p.product_delete(SELLER, PRODUCT).unwrap();
    p.quiesce();
    assert!(active(&p), "deleted while held");
    decide(&p, stock_grain(PRODUCT), true);
    assert!(!active(&p), "the deletion was lost at the held stock");
}

#[test]
fn the_releasing_turn_stores_the_waiting_entries_with_the_holders() {
    let backend = RecordingBackend::new(BackendKind::Eventual);
    let spec = spec().backend_instance(backend.clone() as Arc<dyn StateBackend>);
    let p = TransactionalPlatform::new(&spec);
    ingest(&p);
    hold_seller(&p, 7);
    notify(&p, seller_grain(SELLER), flow::Msg::AddEntry(entry(8, OrderStatus::Invoiced)));
    p.quiesce();
    let mark = backend.log().len();
    decide(&p, seller_grain(SELLER), true);

    // One seller commit: the header and both orders' entry rows.
    let log = backend.log();
    let saves: Vec<_> = log[mark..]
        .iter()
        .filter(|w| w.path == WritePath::Commit && w.ops[0].key.starts_with(b"seller/"))
        .collect();
    assert_eq!(saves.len(), 1, "{saves:?}");
    assert_eq!(saves[0].ops.len(), 3, "{:?}", saves[0]);
    drop(log);

    // A cold rebuild over the same backend reads both entries.
    let rebuilt = TransactionalPlatform::new(&spec);
    let expected = [(7, OrderStatus::Invoiced), (8, OrderStatus::Invoiced)];
    assert_eq!(entries(&rebuilt), expected);
}
