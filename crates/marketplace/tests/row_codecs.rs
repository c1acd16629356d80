//! The row codecs of `domain::rows`: storing a service and loading it back
//! gives the same service state for the rows touched, and rows read back
//! from storage — outside input at checkpoint recovery and grain
//! activation — give a typed error, never a panic, whatever they hold. A
//! seller's activation leaves out the entry rows that do not read.

use om_common::entity::{CartItem, Customer, OrderEntry, OrderStatus, PaymentMethod, Seller};
use om_common::event::OrderLineRef;
use om_common::ids::{CustomerId, OrderId, ProductId, SellerId, ShipmentId, TransactionId};
use om_common::time::EventTime;
use om_common::{Money, OmResult};
use om_marketplace::domain::rows::{self, load_root, store_root, CustomerOrders, RowWriter};
use om_marketplace::domain::rows::{SellerDelta, StoredRows};
use om_marketplace::domain::{OrderService, PaymentService, SellerView, ShipmentService};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Rows as a store holds them: every write applied in order.
#[derive(Default)]
struct Store(BTreeMap<Vec<u8>, Vec<u8>>);

impl RowWriter for Store {
    fn put_row(&mut self, row: Vec<u8>, bytes: Vec<u8>) {
        self.0.insert(row, bytes);
    }

    fn delete_row(&mut self, row: Vec<u8>) {
        self.0.remove(&row);
    }
}

impl Store {
    /// The rows read back, as an activation or a checkpoint read gets them.
    fn read(&self) -> StoredRows {
        let mut rows = self.0.clone();
        let root = rows.remove(rows::ROOT);
        StoredRows {
            root,
            rows: rows.into_iter().collect(),
        }
    }
}

fn encode<T: serde::Serialize>(value: &T) -> Vec<u8> {
    om_common::codec::to_bytes(value).unwrap()
}

fn seller() -> SellerView {
    SellerView::new(Seller::new(SellerId(1), "s".into(), "c".into()))
}

fn entry(order: u64, product: u64) -> OrderEntry {
    OrderEntry {
        order: OrderId(order),
        seller: SellerId(1),
        product: ProductId(product),
        quantity: 1,
        total_amount: Money::from_cents(100 * product as i64),
        status: OrderStatus::Invoiced,
    }
}

fn item() -> CartItem {
    CartItem {
        seller: SellerId(1),
        product: ProductId(4),
        quantity: 2,
        unit_price: Money::from_cents(150),
        freight_value: Money::ZERO,
        product_version: 0,
    }
}

fn line(product: u64) -> OrderLineRef {
    OrderLineRef {
        seller: SellerId(1),
        product: ProductId(product),
        quantity: 2,
        total_amount: Money::from_cents(300),
        freight_value: Money::ZERO,
    }
}

#[test]
fn a_seller_view_round_trips_through_header_and_entry_rows() {
    let mut view = seller();
    for (order, product) in [(10, 1), (10, 2), (11, 1), (12, 3)] {
        view.add_entry(entry(order, product));
    }
    let mut store = Store::default();
    SellerDelta::of(&seller(), [10, 11, 12].map(OrderId))
        .store(&view, &mut store)
        .unwrap();
    let back = SellerView::load_all(&store.read()).unwrap().unwrap();
    assert_eq!(back.dashboard(), view.dashboard());
    assert_eq!(
        rows::seller_entries(&store.read()).unwrap(),
        view.entry_list()
    );

    // A change to one order stores that order: its retired entries go.
    let delta = SellerDelta::of(&view, [OrderId(10)]);
    view.apply_status(OrderId(10), OrderStatus::Delivered);
    delta.store(&view, &mut store).unwrap();
    assert_eq!(store.0.len(), 1 + 2, "the header and orders 11 and 12");
    let back = SellerView::load_all(&store.read()).unwrap().unwrap();
    assert_eq!(back.dashboard(), view.dashboard());
    assert_eq!(back.seller, view.seller);

    // The header alone, then one order's rows.
    let mut part: SellerView = load_root(&store.read()).unwrap().unwrap();
    assert!(part.entries.is_empty());
    part.load_order(&store.read(), OrderId(12)).unwrap();
    assert_eq!(part.entry_list(), vec![entry(12, 3)]);

    // A new view replaces every row of the old one: from the view a grain
    // holds, or from the stored rows' names.
    let mut by_name = Store(store.0.clone());
    SellerView::delete_entries(&store.read(), &mut by_name);
    SellerDelta::replace(&view)
        .store(&seller(), &mut store)
        .unwrap();
    assert_eq!(store.0.len(), 1, "only the header");
    assert_eq!(by_name.0.keys().collect::<Vec<_>>(), vec![rows::ROOT]);
}

#[test]
fn a_customers_orders_round_trip_through_order_and_assembly_rows() {
    let (customer, tid) = (CustomerId(7), TransactionId(9));
    let mut store = Store::default();
    let mut st = CustomerOrders::load(customer, &store.read()).unwrap();
    st.svc.begin_assembly(tid, 1, EventTime(1));
    st.store(&mut store).unwrap();

    let mut st = CustomerOrders::load(customer, &store.read()).unwrap();
    st.load_pending(&store.read(), tid).unwrap();
    let done = st
        .svc
        .record_stock_answer(tid, item(), true)
        .expect("the one answer");
    let order = st.svc.create_order(&done.confirmed, EventTime(2)).unwrap();
    st.store(&mut store).unwrap();
    assert_eq!(rows::orders(&store.read()).unwrap(), vec![order.clone()]);
    assert_eq!(store.0.len(), 2, "the completed assembly's row is deleted");

    let mut st = CustomerOrders::load(customer, &store.read()).unwrap();
    st.load_order(&store.read(), order.id).unwrap();
    let sellers = std::collections::BTreeSet::from([order.items[0].seller]);
    st.svc.delivered.insert(order.id, sellers.clone());
    st.svc
        .set_status(order.id, OrderStatus::Paid, EventTime(3))
        .unwrap();
    st.store(&mut store).unwrap();
    let mut st = CustomerOrders::load(customer, &store.read()).unwrap();
    st.load_order(&store.read(), order.id).unwrap();
    assert_eq!(st.svc.orders[&order.id].status, OrderStatus::Paid);
    assert_eq!(st.svc.delivered[&order.id], sellers, "the order row keeps its delivered sellers");
    let next = st.svc.create_order(&done.confirmed, EventTime(4)).unwrap();
    assert_eq!(
        next.invoice, "INV-7-1",
        "the header keeps the invoice sequence"
    );
}

#[test]
fn roots_payments_and_shipments_round_trip_through_their_rows() {
    let mut store = Store::default();
    let mut customer = Customer::new(CustomerId(2), "c".into(), "a".into());
    customer.record_payment(true, Money::from_cents(250));
    store_root(&mut store, &customer).unwrap();
    assert_eq!(load_root(&store.read()).unwrap(), Some(customer));

    let mut store = Store::default();
    let mut svc = PaymentService::new(CustomerId(2));
    let pay = |svc: &mut PaymentService, o| {
        svc.process(
            OrderId(o),
            PaymentMethod::Boleto,
            Money::ZERO,
            0.0,
            EventTime(o),
        )
    };
    let paid = vec![pay(&mut svc, 1), pay(&mut svc, 2)];
    svc.store_rows(&mut store).unwrap();
    assert_eq!(rows::payments(&store.read()).unwrap(), paid);
    let mut svc: PaymentService = load_root(&store.read()).unwrap().unwrap();
    assert!(svc.payments.is_empty());
    assert_ne!(
        pay(&mut svc, 3).id,
        paid[1].id,
        "the header keeps the id sequence"
    );

    let mut store = Store::default();
    let mut svc = ShipmentService::new(SellerId(1));
    let (c, first, second) = (CustomerId(1), [line(1), line(2)], [line(3)]);
    svc.create_packages(ShipmentId(8), OrderId(8), c, &first, EventTime(5));
    svc.create_packages(ShipmentId(6), OrderId(6), c, &second, EventTime(7));
    let packages = svc.packages.clone();
    svc.store_rows(&mut store).unwrap();
    let oldest = ShipmentService::oldest_open(&store.read()).unwrap();
    assert_eq!(oldest, Some((EventTime(5), OrderId(8))));

    let mut svc: ShipmentService = load_root(&store.read()).unwrap().unwrap();
    svc.load_order(&store.read(), OrderId(8)).unwrap();
    assert_eq!(svc.packages, packages[..2]);
    assert_eq!(
        svc.deliver_oldest_order(EventTime(9)).unwrap().0,
        OrderId(8)
    );
    svc.store_rows(&mut store).unwrap();
    let oldest = ShipmentService::oldest_open(&store.read()).unwrap();
    assert_eq!(
        oldest,
        Some((EventTime(7), OrderId(6))),
        "order 8 left the index"
    );
    let stored = rows::packages(&store.read()).unwrap();
    assert_eq!(
        stored.iter().filter(|p| p.delivered_at.is_some()).count(),
        2
    );
    let svc: ShipmentService = load_root(&store.read()).unwrap().unwrap();
    assert_eq!((svc.delivered_count, stored.len()), (2, 3));
}

#[test]
fn a_row_name_shorter_than_its_ids_is_a_typed_error() {
    let short = |tag, id: u8| vec![tag, 0, 0, 0, 0, 0, 0, 0, id];
    let entries = StoredRows {
        root: Some(encode(&seller())),
        rows: vec![(short(rows::ENTRY, 1), encode(&entry(1, 1)))],
    };
    let err = seller().load_order(&entries, OrderId(1)).unwrap_err();
    assert_eq!(err.label(), "internal");
    let shipment = StoredRows {
        root: None,
        rows: vec![(short(rows::OPEN, 5), Vec::new())],
    };
    let err = ShipmentService::oldest_open(&shipment).unwrap_err();
    assert_eq!(err.label(), "internal");
}

#[test]
fn a_seller_activates_without_the_entry_rows_that_do_not_read() {
    let mut store = Store::default();
    let mut view = seller();
    view.add_entry(entry(1, 1));
    view.add_entry(entry(2, 2));
    SellerDelta::of(&seller(), [OrderId(1), OrderId(2)])
        .store(&view, &mut store)
        .unwrap();
    let mut stored = store.read();
    // Order 2's row holds bytes that do not decode; a third row's name is
    // shorter than its ids.
    stored.rows[1].1 = vec![0xff; 3];
    stored
        .rows
        .push((vec![rows::ENTRY, 9], encode(&entry(9, 9))));

    let back = SellerView::load_all(&stored).unwrap().unwrap();
    assert_eq!(back.entry_list(), vec![entry(1, 1)]);
    assert_eq!(back.seller, view.seller);
}

/// Rows as storage may hand them back: a root row that is `header` or any
/// bytes, names under `tags` with one or two small ids cut anywhere (some
/// shorter than their ids), and values that are `valid` or any bytes.
fn rows_from_outside(
    tags: Vec<u8>,
    header: Vec<u8>,
    valid: Vec<u8>,
) -> impl Strategy<Value = StoredRows> {
    let either = |valid: Vec<u8>| {
        (
            prop::bool::weighted(0.5),
            prop::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(move |(ok, junk)| if ok { valid.clone() } else { junk })
    };
    let cut = prop::sample::select(vec![0, 3, 8, 8, 12, 16, 16]);
    let name = (prop::sample::select(tags), 0u64..3, 0u64..3, cut).prop_map(|(tag, a, b, cut)| {
        [[tag].as_slice(), &a.to_be_bytes(), &b.to_be_bytes()].concat()[..1 + cut].to_vec()
    });
    let rows = prop::collection::btree_map(name, either(valid), 0..6);
    (either(header), rows).prop_map(|(root, rows)| StoredRows {
        root: Some(root),
        rows: rows.into_iter().collect(),
    })
}

/// The value of a real order row.
fn an_order_row() -> Vec<u8> {
    let mut st = CustomerOrders::load(CustomerId(0), &StoredRows::default()).unwrap();
    st.svc.create_order(&[item()], EventTime(1)).unwrap();
    let mut store = Store::default();
    st.store(&mut store).unwrap();
    store
        .0
        .into_iter()
        .find(|(name, _)| name.first() == Some(&rows::ORDER))
        .unwrap()
        .1
}

/// The value of a real package row.
fn a_package() -> Vec<u8> {
    let mut svc = ShipmentService::new(SellerId(1));
    svc.create_packages(
        ShipmentId(1),
        OrderId(1),
        CustomerId(1),
        &[line(1)],
        EventTime(1),
    );
    encode(&svc.packages[0])
}

/// An outcome of reading outside input: a value, or a typed error.
fn typed<T>(result: OmResult<T>) -> Result<(), TestCaseError> {
    if let Err(e) = result {
        prop_assert_eq!(e.label(), "internal");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_seller_rows_from_outside_read_or_fail_typed(
        stored in rows_from_outside(vec![rows::ENTRY, b'x'], encode(&seller()), encode(&entry(1, 2))),
        order in 0u64..3,
    ) {
        typed(SellerView::load_all(&stored))?;
        typed(rows::seller_entries(&stored))?;
        typed(seller().load_order(&stored, OrderId(order)))?;
    }

    #[test]
    fn prop_order_rows_from_outside_read_or_fail_typed(
        stored in rows_from_outside(
            vec![rows::ORDER, rows::PENDING],
            encode(&OrderService::new(CustomerId(1))),
            an_order_row(),
        ),
        id in 0u64..3,
    ) {
        typed(rows::orders(&stored))?;
        if let Ok(mut st) = CustomerOrders::load(CustomerId(1), &stored) {
            typed(st.load_order(&stored, OrderId(id)))?;
            typed(st.load_pending(&stored, TransactionId(id)))?;
        }
    }

    #[test]
    fn prop_shipment_rows_from_outside_read_or_fail_typed(
        stored in rows_from_outside(
            vec![rows::PACKAGE, rows::OPEN],
            encode(&ShipmentService::new(SellerId(1))),
            a_package(),
        ),
        order in 0u64..3,
    ) {
        typed(ShipmentService::oldest_open(&stored))?;
        typed(rows::packages(&stored))?;
        if let Ok(Some(mut svc)) = load_root::<ShipmentService>(&stored) {
            typed(svc.load_order(&stored, OrderId(order)))?;
        }
    }
}
